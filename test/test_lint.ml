(* Tests for reflex-lint: every rule family fires on its deliberately-bad
   fixture with exact rule-id and line, stays silent on the clean twin,
   waivers are honored (and malformed waivers rejected), the manifest
   grammar is validated, and — the point of the whole exercise — the
   live tree lints clean, with byte-identical reports serial and --jobs 2. *)

(* The repo root: the nearest directory up from [dir] holding
   lint.manifest (the source tree, or its copy under _build). *)
let rec find_root dir =
  if Sys.file_exists (Filename.concat dir "lint.manifest") then dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then failwith "repo root (lint.manifest) not found" else find_root parent

(* Fixture paths, and the file names expected in their diagnostics, are
   relative to the root's test/ directory.  Each case runs there, so the
   suite passes from any working directory under the root (the repo root
   as well as dune's test/ sandbox). *)
let case name f =
  Alcotest.test_case name `Quick (fun () ->
      let cwd = Sys.getcwd () in
      Sys.chdir (Filename.concat (find_root cwd) "test");
      Fun.protect ~finally:(fun () -> Sys.chdir cwd) f)

let lint rel =
  let src = Lint_source.load ~rel ~abs:rel in
  Lint_driver.run_on_source ~manifest:Lint_manifest.empty src

let rule_lines (r : Lint_driver.report) =
  List.map (fun d -> (d.Lint_diagnostic.rule, d.Lint_diagnostic.line)) r.Lint_driver.findings

let finding = Alcotest.(pair string int)

let check_findings name expected rel =
  Alcotest.(check (list finding)) name expected (rule_lines (lint rel))

(* ---------------- one bad + one clean fixture per rule ---------------- *)

let test_det_random () =
  check_findings "bad fires" [ ("det/random", 3) ] "lint_fixtures/bad_det_random.ml";
  check_findings "clean silent" [] "lint_fixtures/clean_det_random.ml"

let test_det_clock () =
  check_findings "bad fires" [ ("det/clock", 3); ("det/clock", 5) ] "lint_fixtures/bad_det_clock.ml";
  check_findings "clean silent" [] "lint_fixtures/clean_det_clock.ml"

let test_det_marshal () =
  check_findings "bad fires" [ ("det/marshal", 3) ] "lint_fixtures/bad_det_marshal.ml";
  check_findings "clean silent" [] "lint_fixtures/clean_det_marshal.ml"

let test_det_hashtbl () =
  check_findings "bad fires" [ ("det/hashtbl-order", 4) ] "lint_fixtures/bad_det_hashtbl.ml";
  check_findings "clean (sorted) silent" [] "lint_fixtures/clean_det_hashtbl.ml"

let test_dom_toplevel () =
  check_findings "bad fires" [ ("dom/toplevel-state", 3) ] "lint_fixtures/bad_dom_toplevel.ml";
  check_findings "clean (per-instance) silent" [] "lint_fixtures/clean_dom_toplevel.ml"

let test_guard () =
  check_findings "bad fires" [ ("guard/telemetry", 4) ] "lint_fixtures/bad_guard.ml";
  check_findings "clean (guarded) silent" [] "lint_fixtures/clean_guard.ml"

(* ---------------- waivers ---------------- *)

let test_waiver_honored () =
  let r = lint "lint_fixtures/waiver_ok.ml" in
  Alcotest.(check (list finding)) "waived" [] (rule_lines r);
  Alcotest.(check int) "one waiver applied" 1 r.Lint_driver.waivers_used

let test_waiver_unknown_rule () =
  check_findings "bad-waiver finding" [ ("lint/bad-waiver", 3) ] "lint_fixtures/waiver_unknown.ml"

let test_waiver_no_reason () =
  (* The malformed waiver is a finding AND does not suppress the
     violation under it. *)
  check_findings "bad-waiver + unsuppressed violation"
    [ ("lint/bad-waiver", 4); ("det/clock", 5) ]
    "lint_fixtures/waiver_noreason.ml"

let test_waiver_internal_rule () =
  let src =
    Lint_source.of_string ~rel:"w.ml"
      "(* reflex-lint: allow lint/parse-error — nope *)\nlet x = 1\n"
  in
  let r = Lint_driver.run_on_source ~manifest:Lint_manifest.empty src in
  Alcotest.(check (list finding)) "internal rules unwaivable" [ ("lint/bad-waiver", 1) ]
    (rule_lines r)

(* A waiver-shaped string literal is not a waiver (the comment lexer
   skips strings), and does not suppress anything. *)
let test_waiver_in_string () =
  let src =
    Lint_source.of_string ~rel:"s.ml"
      "let s = \"(* reflex-lint: allow det/clock — x *)\"\nlet now_us () = Unix.gettimeofday ()\n"
  in
  let r = Lint_driver.run_on_source ~manifest:Lint_manifest.empty src in
  Alcotest.(check (list finding)) "string is not a waiver" [ ("det/clock", 2) ] (rule_lines r)

(* ---------------- manifest grammar ---------------- *)

let test_manifest_errors () =
  let text =
    String.concat "\n"
      [
        "allow det/clock bench/"; (* missing reason *)
        "frobnicate x — y"; (* unknown directive *)
        "allow det/nope lib/ — r"; (* unknown rule-id *)
        "allow hot/alloc lib/ — r"; (* a deleted rule-id *)
        "hot_path f.ml g — r"; (* allocation is the word gates' job, not policy *)
        "cold_path f.ml g — r";
        "";
      ]
  in
  let _, diags = Lint_manifest.parse ~file:"bad.manifest" text in
  Alcotest.(check (list finding)) "each bad line is a finding"
    (List.map (fun line -> ("lint/manifest", line)) [ 1; 2; 3; 4; 5; 6 ])
    (List.map (fun d -> (d.Lint_diagnostic.rule, d.Lint_diagnostic.line)) diags)

(* ---------------- iface/mli via the directory driver ---------------- *)

let test_iface_dir () =
  let r =
    Lint_driver.run ~paths:[ "lint_fixtures/iface" ] ~root:(Sys.getcwd ())
      ~manifest_path:"lint_fixtures/fixtures.manifest" ()
  in
  Alcotest.(check (list finding)) "bad_mod flagged, good_mod silent" [ ("iface/mli", 1) ]
    (rule_lines r);
  let d = List.hd r.Lint_driver.findings in
  Alcotest.(check string) "file precision" "lint_fixtures/iface/bad_mod.ml"
    d.Lint_diagnostic.file

(* ---------------- rendering ---------------- *)

let test_diag_format () =
  let d = Lint_diagnostic.make ~file:"a.ml" ~line:3 ~col:7 ~rule:"det/clock" "msg \"q\"" in
  Alcotest.(check string) "text" "a.ml:3:7: error [det/clock] msg \"q\""
    (Lint_diagnostic.to_string d);
  Alcotest.(check string) "json"
    {|{"file":"a.ml","line":3,"col":7,"rule":"det/clock","message":"msg \"q\""}|}
    (Lint_diagnostic.to_json d)

let test_report_json () =
  let r = lint "lint_fixtures/bad_det_random.ml" in
  let j = Lint_driver.to_json r in
  let has needle =
    let n = String.length needle and m = String.length j in
    let rec go i = i + n <= m && (String.sub j i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "finding_count" true (has "\"finding_count\": 1");
  Alcotest.(check bool) "rule id present" true (has "det/random")

(* ---------------- interprocedural passes over the graph fixtures ----- *)

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let graph_manifest = "lint_fixtures/graph/graph.manifest"

let run_graph ?(jobs = 1) () =
  Lint_driver.run ~paths:[ "lint_fixtures/graph" ] ~jobs ~root:(Sys.getcwd ())
    ~manifest_path:graph_manifest ()

(* One directory run over the fixture mini-tree exercises every inferred
   family with exact (file, line, rule): a taint chain through a module
   alias, an alias-resolved unguarded telemetry call, a drifted
   identity_sink entry (anchored at its manifest line), and a stale
   interprocedural waiver — while each clean twin (pure sink callees,
   the guard in the calling function, a used waiver) stays silent. *)
let test_graph_findings () =
  let r = run_graph () in
  let triples =
    List.map
      (fun d -> (d.Lint_diagnostic.file, d.Lint_diagnostic.line, d.Lint_diagnostic.rule))
      r.Lint_driver.findings
  in
  Alcotest.(check (list (triple string int string)))
    "exact findings"
    [
      ("lint_fixtures/graph/bad_guard_via.ml", 4, "guard/transitive");
      ("lint_fixtures/graph/graph.manifest", 12, "lint/manifest");
      ("lint_fixtures/graph/stale_waiver.ml", 1, "lint/bad-waiver");
      ("lint_fixtures/graph/taint_render.ml", 5, "det/taint");
    ]
    triples;
  Alcotest.(check int) "inline waiver on the sink's taint is used" 1 r.Lint_driver.waivers_used

(* An identity_sink entry naming no function is reported at its manifest
   line, with the entry's file and function in the message. *)
let test_sink_drift () =
  let r = run_graph () in
  match List.filter (fun d -> d.Lint_diagnostic.rule = "lint/manifest") r.Lint_driver.findings with
  | [ d ] ->
    Alcotest.(check int) "anchored at the entry" 12 d.Lint_diagnostic.line;
    Alcotest.(check bool) "names the missing function" true
      (contains d.Lint_diagnostic.message
         {|identity_sink function "gone" not found in lint_fixtures/graph/taint_clean.ml|})
  | ds -> Alcotest.failf "expected one drift finding, got %d" (List.length ds)

let test_graph_stats () =
  let r = run_graph () in
  match r.Lint_driver.gstats with
  | None -> Alcotest.fail "directory run must carry call-graph stats"
  | Some s ->
    Alcotest.(check int) "taint sources" 2 s.Lint_interproc.gs_taint_sources;
    Alcotest.(check int) "identity sinks" 4 s.Lint_interproc.gs_identity_sinks

(* Inferred findings carry their chain, both structurally and as
   "via a -> b -> c" in the message. *)
let test_graph_chains () =
  let r = run_graph () in
  let find rule =
    List.find (fun d -> d.Lint_diagnostic.rule = rule) r.Lint_driver.findings
  in
  let names d = List.map (fun s -> s.Lint_diagnostic.st_name) d.Lint_diagnostic.chain in
  let taint = find "det/taint" in
  Alcotest.(check (list string)) "taint chain sink-to-source"
    [ "Taint_render.render"; "Taint_src.noise"; "Random.int (ambient PRNG)" ]
    (names taint);
  Alcotest.(check bool) "taint message spells the chain" true
    (contains taint.Lint_diagnostic.message
       "via Taint_render.render -> Taint_src.noise -> Random.int (ambient PRNG)");
  Alcotest.(check (list string)) "guard chain: the calling function, then the call"
    [ "Bad_guard_via.emit"; "Telemetry.incr" ]
    (names (find "guard/transitive"))

(* The per-file stage fans across domains; merge and filtering are
   serial, so reports are byte-identical for any --jobs. *)
let check_jobs_identity a b =
  Alcotest.(check string) "text identical" (Lint_driver.to_text a) (Lint_driver.to_text b);
  Alcotest.(check string) "json identical" (Lint_driver.to_json a) (Lint_driver.to_json b)

let test_graph_jobs_identity () = check_jobs_identity (run_graph ()) (run_graph ~jobs:2 ())

let test_graph_exports () =
  let _, g =
    Lint_driver.run_full ~paths:[ "lint_fixtures/graph" ] ~root:(Sys.getcwd ())
      ~manifest_path:graph_manifest ()
  in
  let dot = Lint_callgraph.to_dot g in
  Alcotest.(check bool) "dot has the applied edge" true
    (contains dot "\"Taint_render.render\" -> \"Taint_src.noise\"");
  Alcotest.(check bool) "dot dashes a mention" true
    (contains dot "\"Bad_guard_via.<init:6>\" -> \"Bad_guard_via.tick\" [style=dashed];");
  let json = Lint_callgraph.to_json g in
  Alcotest.(check bool) "json has the applied edge" true
    (contains json {|{"from":"Taint_render.render","to":"Taint_src.noise"|});
  Alcotest.(check bool) "json nodes carry file and line" true
    (contains json {|{"id":"Taint_src.noise","file":"lint_fixtures/graph/taint_src.ml","line":4}|})

(* --explain's backing text: every public rule-id has a real description. *)
let test_rule_descriptions () =
  List.iter
    (fun id ->
      let d = Lint_rule_ids.describe id in
      Alcotest.(check bool) (id ^ " described") true
        (String.length d > 40 && not (contains d "unknown rule-id")))
    Lint_rule_ids.all

(* ---------------- the live tree lints clean ---------------- *)

let test_live_tree_clean () =
  let root = find_root (Sys.getcwd ()) in
  let manifest_path = Filename.concat root "lint.manifest" in
  let r = Lint_driver.run ~root ~manifest_path () in
  if not (Lint_driver.clean r) then
    Alcotest.failf "live tree has lint findings:\n%s" (Lint_driver.to_text r);
  Alcotest.(check bool) "scanned the whole tree" true (r.Lint_driver.files_scanned > 50);
  check_jobs_identity r (Lint_driver.run ~jobs:2 ~root ~manifest_path ())

let suite =
  [
    ( "rules",
      [
        case "det/random fixtures" test_det_random;
        case "det/clock fixtures" test_det_clock;
        case "det/marshal fixtures" test_det_marshal;
        case "det/hashtbl-order fixtures" test_det_hashtbl;
        case "dom/toplevel-state fixtures" test_dom_toplevel;
        case "guard/telemetry fixtures" test_guard;
      ] );
    ( "waivers",
      [
        case "waiver honored" test_waiver_honored;
        case "unknown rule-id rejected" test_waiver_unknown_rule;
        case "missing reason rejected" test_waiver_no_reason;
        case "internal rules unwaivable" test_waiver_internal_rule;
        case "waiver inside string ignored" test_waiver_in_string;
      ] );
    ( "manifest",
      [
        case "grammar errors are findings" test_manifest_errors;
        case "identity_sink drift is a finding" test_sink_drift;
      ] );
    ( "callgraph",
      [
        case "inferred findings, exact (file,line,rule)" test_graph_findings;
        case "call-graph statistics" test_graph_stats;
        case "propagation chains" test_graph_chains;
        case "serial vs --jobs 2 byte-identity" test_graph_jobs_identity;
        case "dot/json exports" test_graph_exports;
        case "--explain rule descriptions" test_rule_descriptions;
      ] );
    ( "driver",
      [
        case "iface/mli over a directory" test_iface_dir;
        case "diagnostic formatting" test_diag_format;
        case "json report" test_report_json;
        case "live tree lints clean" test_live_tree_clean;
      ] );
  ]
