(* reflex-lint command line.

     reflex_lint [--root DIR] [--manifest PATH] [--json PATH|-]
                 [--jobs N] [--explain RULE-ID] [PATHS...]

   Scans lib/ and bin/ under --root (default: cwd) unless explicit
   PATHS are given.  Prints compiler-style findings to stdout; exits 1
   when there are findings, 0 on a clean tree.  --json writes the
   machine-readable report (use "-" for stdout).  --jobs fans the
   per-file stage across domains (output is byte-identical to serial).
   --explain prints the rule's documentation and lists each current
   finding of that rule. *)

let () =
  let root = ref (Sys.getcwd ()) in
  let manifest = ref "" in
  let json = ref "" in
  let jobs = ref 1 in
  let explain = ref "" in
  let paths = ref [] in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR repository root (default: cwd)");
      ( "--manifest",
        Arg.Set_string manifest,
        "PATH lint.manifest location (default: ROOT/lint.manifest)" );
      ("--json", Arg.Set_string json, "PATH write JSON report to PATH ('-' for stdout)");
      ("--jobs", Arg.Set_int jobs, "N fan the per-file stage across N domains (default: 1)");
      ( "--explain",
        Arg.Set_string explain,
        "RULE-ID print the rule's documentation and list its findings" );
    ]
  in
  Arg.parse spec
    (fun p -> paths := p :: !paths)
    "reflex_lint [--root DIR] [--manifest PATH] [--json PATH|-] [--jobs N] [--explain \
     RULE-ID] [PATHS...]";
  let manifest_path =
    if !manifest <> "" then !manifest else Filename.concat !root "lint.manifest"
  in
  let paths = match List.rev !paths with [] -> None | ps -> Some ps in
  let report = Lint_driver.run ?paths ~jobs:!jobs ~root:!root ~manifest_path () in
  (match !explain with
  | "" -> print_string (Lint_driver.to_text report)
  | rule ->
    Printf.printf "%s: %s\n" rule (Lint_rule_ids.describe rule);
    let of_rule =
      List.filter (fun (d : Lint_diagnostic.t) -> d.Lint_diagnostic.rule = rule) report.Lint_driver.findings
    in
    Printf.printf "%d finding(s) of %s in this tree\n" (List.length of_rule) rule;
    List.iter (fun d -> Printf.printf "\n%s\n" (Lint_diagnostic.to_string d)) of_rule);
  (match !json with
  | "" -> ()
  | "-" -> print_string (Lint_driver.to_json report)
  | path ->
    let oc = open_out path in
    output_string oc (Lint_driver.to_json report);
    close_out oc);
  exit (if Lint_driver.clean report then 0 else 1)
