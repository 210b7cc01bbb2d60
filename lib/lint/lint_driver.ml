(* Orchestration: discover sources, run the per-file rule families and
   apply inline waivers then manifest [allow] prefixes (fanned across
   domains with Runner.map), and render the report.

   The linter holds itself to its own determinism bar: directory walks
   are sorted, findings are sorted, nothing reads clocks or ambient
   randomness, and every finding belongs to the file that produced it,
   so per-file results merge in input order — reports are byte-identical
   for any --jobs. *)

type report = {
  findings : Lint_diagnostic.t list; (* sorted; already waiver/manifest-filtered *)
  files_scanned : int;
  waivers_used : int;
}

let clean r = r.findings = []

(* ---------------- file discovery ---------------- *)

let is_dir p = try Sys.is_directory p with Sys_error _ -> false

let rec walk_ml acc path =
  if is_dir path then
    Array.to_list (Sys.readdir path)
    |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           if name = "" || name.[0] = '.' || name = "_build" then acc
           else walk_ml acc (Filename.concat path name))
         acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let discover ~root paths =
  List.concat_map
    (fun p ->
      let abs = if Filename.is_relative p then Filename.concat root p else p in
      List.rev (walk_ml [] abs))
    paths

let relativize ~root path =
  let root = if Filename.check_suffix root "/" then root else root ^ "/" in
  let n = String.length root in
  if String.length path > n && String.sub path 0 n = root then
    String.sub path n (String.length path - n)
  else path

(* ---------------- one file (parallel-safe) ---------------- *)

(* One file's findings, with the ones an inline waiver or a manifest
   [allow] prefix covers dropped, and the number of waivers applied.
   Parse and waiver problems are never filtered. *)
let lint_source ~manifest ?(extra = []) (src : Lint_source.t) =
  let waivers_used = ref 0 in
  let kept =
    List.filter
      (fun (d : Lint_diagnostic.t) ->
        if Lint_waiver.covers src.Lint_source.waivers ~rule:d.Lint_diagnostic.rule ~line:d.Lint_diagnostic.line
        then begin
          incr waivers_used;
          false
        end
        else not (Lint_manifest.allowed manifest ~rule:d.Lint_diagnostic.rule ~path:src.Lint_source.rel))
      (Lint_rules.check ~manifest src @ extra)
  in
  (src.Lint_source.parse_diags @ src.Lint_source.waiver_diags @ kept, !waivers_used)

let scan_one ~manifest ~root abs =
  let rel = relativize ~root abs in
  let has_mli = Sys.file_exists (abs ^ "i") in
  lint_source ~manifest
    ~extra:(Lint_rules.check_iface ~manifest ~rel ~has_mli)
    (Lint_source.load ~rel ~abs)

(* ---------------- entry points ---------------- *)

let default_paths = [ "lib"; "bin" ]

let report findings ~files_scanned ~waivers_used =
  { findings = List.sort_uniq Lint_diagnostic.compare findings; files_scanned; waivers_used }

let run ?(paths = default_paths) ?(jobs = 1) ~root ~manifest_path () =
  let manifest, manifest_diags = Lint_manifest.load manifest_path in
  let files = discover ~root paths in
  let scans = Reflex_experiments.Runner.map ~jobs (scan_one ~manifest ~root) files in
  report
    (manifest_diags @ List.concat_map fst scans)
    ~files_scanned:(List.length files)
    ~waivers_used:(List.fold_left (fun acc (_, n) -> acc + n) 0 scans)

(* Lint a single file against an already-parsed manifest (fixture tests). *)
let run_on_source ~manifest src =
  let findings, waivers_used = lint_source ~manifest src in
  report findings ~files_scanned:1 ~waivers_used

(* ---------------- rendering ---------------- *)

let to_text r =
  let buf = Buffer.create 256 in
  List.iter
    (fun d ->
      Buffer.add_string buf (Lint_diagnostic.to_string d);
      Buffer.add_char buf '\n')
    r.findings;
  Buffer.add_string buf
    (Printf.sprintf "reflex-lint: %d file(s), %d rule(s), %d finding(s), %d waiver(s) applied\n"
       r.files_scanned (List.length Lint_rule_ids.all) (List.length r.findings) r.waivers_used);
  Buffer.contents buf

let to_json r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"files_scanned\": %d,\n" r.files_scanned);
  Buffer.add_string buf (Printf.sprintf "  \"rule_count\": %d,\n" (List.length Lint_rule_ids.all));
  Buffer.add_string buf
    (Printf.sprintf "  \"rules\": [%s],\n"
       (String.concat ", " (List.map Reflex_obs.Trace_event.quote Lint_rule_ids.all)));
  Buffer.add_string buf (Printf.sprintf "  \"waivers_used\": %d,\n" r.waivers_used);
  Buffer.add_string buf (Printf.sprintf "  \"finding_count\": %d,\n" (List.length r.findings));
  Buffer.add_string buf
    (Printf.sprintf "  \"findings\": [%s]\n"
       (String.concat ", " (List.map Lint_diagnostic.to_json r.findings)));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
