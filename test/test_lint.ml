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
  check_findings "clean (guarded) silent" [] "lint_fixtures/clean_guard.ml";
  check_findings "bad via a file-local alias fires" [ ("guard/telemetry", 4) ]
    "lint_fixtures/bad_guard_via.ml";
  check_findings "clean via a file-local alias silent" [] "lint_fixtures/clean_guard_via.ml"

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
        "identity_sink f.ml g — r"; (* byte identity is tier-1's pins' job *)
        "allow det/taint lib/ — r"; (* a deleted rule-id *)
        "";
      ]
  in
  let _, diags = Lint_manifest.parse ~file:"bad.manifest" text in
  Alcotest.(check (list finding)) "each bad line is a finding"
    (List.map (fun line -> ("lint/manifest", line)) [ 1; 2; 3; 4; 5; 6; 7; 8 ])
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

(* ---------------- the directory driver over every fixture ---------- *)

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let run_fixtures ?(jobs = 1) () =
  Lint_driver.run ~paths:[ "lint_fixtures" ] ~jobs ~root:(Sys.getcwd ())
    ~manifest_path:"lint_fixtures/fixtures.manifest" ()

(* The per-file stage fans across domains; every finding belongs to the
   file that produced it and files merge in input order, so reports are
   byte-identical for any --jobs. *)
let check_jobs_identity a b =
  Alcotest.(check string) "text identical" (Lint_driver.to_text a) (Lint_driver.to_text b);
  Alcotest.(check string) "json identical" (Lint_driver.to_json a) (Lint_driver.to_json b)

let test_jobs_identity () =
  let r = run_fixtures () in
  Alcotest.(check bool) "the fixtures have findings" true (r.Lint_driver.findings <> []);
  check_jobs_identity r (run_fixtures ~jobs:2 ())

(* --explain's backing text: every public rule-id, and every rule-id the
   fixtures fire, has a real description. *)
let test_rule_descriptions () =
  let fired = List.map (fun d -> d.Lint_diagnostic.rule) (run_fixtures ()).Lint_driver.findings in
  List.iter
    (fun id ->
      let d = Lint_rule_ids.describe id in
      Alcotest.(check bool) (id ^ " described") true
        (String.length d > 40 && not (contains d "unknown rule-id")))
    (List.sort_uniq String.compare (Lint_rule_ids.all @ fired))

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
    ("manifest", [ case "grammar errors are findings" test_manifest_errors ]);
    ( "driver",
      [
        case "iface/mli over a directory" test_iface_dir;
        case "diagnostic formatting" test_diag_format;
        case "json report" test_report_json;
        case "live tree lints clean" test_live_tree_clean;
        case "serial vs --jobs 2 byte-identity" test_jobs_identity;
        case "--explain rule descriptions" test_rule_descriptions;
      ] );
  ]
