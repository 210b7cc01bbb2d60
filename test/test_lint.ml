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

(* The fixture manifest (also checked in as lint_fixtures/fixtures.manifest
   for CLI experimentation); parsed inline so the tests are self-contained. *)
let fixture_manifest =
  let text =
    "hot_path lint_fixtures/bad_hot_alloc.ml drain — fixture: allocation-scan drain\n"
    ^ "hot_path lint_fixtures/clean_hot_alloc.ml drain — fixture: allocation-scan drain\n"
  in
  let m, diags = Lint_manifest.parse ~file:"inline.manifest" text in
  if diags <> [] then failwith "fixture manifest failed to parse";
  m

let lint rel =
  let src = Lint_source.load ~rel ~abs:rel in
  Lint_driver.run_on_source ~manifest:fixture_manifest src

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

let test_hot_alloc () =
  check_findings "bad fires" [ ("hot/alloc", 4) ] "lint_fixtures/bad_hot_alloc.ml";
  check_findings "clean silent" [] "lint_fixtures/clean_hot_alloc.ml"

(* Without a manifest hot_path entry the same file is silent: the rule is
   opt-in per function. *)
let test_hot_alloc_opt_in () =
  let src = Lint_source.load ~rel:"x.ml" ~abs:"lint_fixtures/bad_hot_alloc.ml" in
  let r = Lint_driver.run_on_source ~manifest:Lint_manifest.empty src in
  Alcotest.(check (list finding)) "no manifest entry, no scan" [] (rule_lines r)

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
        "hot_path f.ml g allow=banana — r"; (* unknown construct *)
        "";
      ]
  in
  let _, diags = Lint_manifest.parse ~file:"bad.manifest" text in
  Alcotest.(check (list finding)) "each bad line is a finding"
    [ ("lint/manifest", 1); ("lint/manifest", 2); ("lint/manifest", 3); ("lint/manifest", 4) ]
    (List.map (fun d -> (d.Lint_diagnostic.rule, d.Lint_diagnostic.line)) diags)

let test_manifest_drift () =
  let m, diags =
    Lint_manifest.parse ~file:"m" "hot_path x.ml missing_fn — fixture: drifted entry\n"
  in
  Alcotest.(check int) "manifest parses" 0 (List.length diags);
  let src = Lint_source.load ~rel:"x.ml" ~abs:"lint_fixtures/clean_det_random.ml" in
  let r = Lint_driver.run_on_source ~manifest:m src in
  Alcotest.(check (list finding)) "drifted hot_path entry is a finding" [ ("lint/manifest", 1) ]
    (rule_lines r)

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
   family with exact (file, line, rule): a two-hop transitive alloc, a
   taint chain through a module alias, an alias-resolved unguarded
   telemetry call, a drifted hot_path entry (anchored at its manifest
   line), and a stale interprocedural waiver — while each clean twin
   (cold_path stop, guard in the caller, pure sink callees, referenced
   entry, used waiver) stays silent. *)
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
      ("lint_fixtures/graph/graph.manifest", 12, "hot/drift");
      ("lint_fixtures/graph/stale_waiver.ml", 1, "lint/bad-waiver");
      ("lint_fixtures/graph/taint_render.ml", 5, "det/taint");
      ("lint_fixtures/graph/trans_leaf.ml", 3, "hot/transitive-alloc");
    ]
    triples;
  Alcotest.(check int) "inline waiver on the inferred alloc is used" 1 r.Lint_driver.waivers_used

let test_graph_stats () =
  let r = run_graph () in
  match r.Lint_driver.gstats with
  | None -> Alcotest.fail "directory run must carry call-graph stats"
  | Some s ->
    Alcotest.(check int) "hot seeds" 7 s.Lint_interproc.gs_hot_seeds;
    Alcotest.(check int) "inferred hot" 5 s.Lint_interproc.gs_hot_inferred;
    Alcotest.(check int) "taint sources" 1 s.Lint_interproc.gs_taint_sources;
    Alcotest.(check int) "identity sinks" 2 s.Lint_interproc.gs_identity_sinks

(* Inferred findings carry their propagation chain, both structurally and
   as "via a -> b -> c" in the message. *)
let test_graph_chains () =
  let r = run_graph () in
  let find rule =
    List.find (fun d -> d.Lint_diagnostic.rule = rule) r.Lint_driver.findings
  in
  let names d = List.map (fun s -> s.Lint_diagnostic.st_name) d.Lint_diagnostic.chain in
  let alloc = find "hot/transitive-alloc" in
  Alcotest.(check (list string)) "alloc chain"
    [ "Trans_root.pump"; "Trans_mid.step"; "Trans_leaf.consume" ]
    (names alloc);
  Alcotest.(check bool) "alloc message spells the chain" true
    (contains alloc.Lint_diagnostic.message
       "via Trans_root.pump -> Trans_mid.step -> Trans_leaf.consume");
  let taint = find "det/taint" in
  Alcotest.(check (list string)) "taint chain sink-to-source"
    [ "Taint_render.render"; "Taint_src.noise"; "Random.int (ambient PRNG)" ]
    (names taint)

(* The per-file stage fans across domains; merge and filtering are
   serial, so reports are byte-identical for any --jobs. *)
let check_jobs_identity a b =
  Alcotest.(check string) "text identical" (Lint_driver.to_text a) (Lint_driver.to_text b);
  Alcotest.(check string) "json identical" (Lint_driver.to_json a) (Lint_driver.to_json b)

let test_graph_jobs_identity () = check_jobs_identity (run_graph ()) (run_graph ~jobs:2 ())

let test_graph_exports () =
  let _, g, hot =
    Lint_driver.run_full ~paths:[ "lint_fixtures/graph" ] ~root:(Sys.getcwd ())
      ~manifest_path:graph_manifest ()
  in
  Alcotest.(check bool) "seed is hot" true (hot "Trans_root.pump");
  Alcotest.(check bool) "two-hop callee inferred hot" true (hot "Trans_leaf.consume");
  Alcotest.(check bool) "cold_path stop is not hot" false (hot "Cold_helper.grow");
  Alcotest.(check bool) "guarded callee is not hot" false (hot "Clean_guard_via.emit");
  let dot = Lint_callgraph.to_dot ~hot g in
  Alcotest.(check bool) "dot has the applied edge" true
    (contains dot "\"Trans_root.pump\" -> \"Trans_mid.step\"");
  let json = Lint_callgraph.to_json ~hot g in
  Alcotest.(check bool) "json has the applied edge" true
    (contains json {|{"from":"Trans_root.pump","to":"Trans_mid.step"|});
  Alcotest.(check bool) "json marks hot nodes" true
    (contains json {|{"id":"Trans_mid.step","file":"lint_fixtures/graph/trans_mid.ml","line":2,"hot":true}|})

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
        case "hot/alloc fixtures" test_hot_alloc;
        case "hot/alloc is manifest-opt-in" test_hot_alloc_opt_in;
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
        case "hot_path drift is a finding" test_manifest_drift;
      ] );
    ( "callgraph",
      [
        case "inferred findings, exact (file,line,rule)" test_graph_findings;
        case "call-graph statistics" test_graph_stats;
        case "propagation chains" test_graph_chains;
        case "serial vs --jobs 2 byte-identity" test_graph_jobs_identity;
        case "dot/json exports and hot marking" test_graph_exports;
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
