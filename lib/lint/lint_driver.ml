(* Orchestration: discover sources, run the per-file rule families (fanned
   across domains with Runner.map), build the cross-module call graph,
   run the interprocedural passes, apply inline waivers then manifest
   [allow] prefixes, and render the report.

   The linter holds itself to its own determinism bar: directory walks
   are sorted, findings are sorted, nothing reads clocks or ambient
   randomness, and all filtering/merging happens serially in input order
   after the fan-out — so reports are byte-identical for any --jobs. *)

type report = {
  findings : Lint_diagnostic.t list; (* sorted; already waiver/manifest-filtered *)
  files_scanned : int;
  waivers_used : int;
  rules : string list;
  gstats : Lint_interproc.stats option; (* None for single-source runs *)
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

(* ---------------- one file (parallel-safe stage) ---------------- *)

(* Everything a worker computes for one file.  Pure per-file work: rule
   findings are raw (unfiltered), waiver application and the
   interprocedural passes happen serially in the merge phase so waiver
   bookkeeping and report bytes cannot depend on scheduling. *)
type scanned = {
  sc_rel : string;
  sc_waivers : Lint_waiver.t list;
  sc_pre : Lint_diagnostic.t list; (* parse/waiver diags: never filtered *)
  sc_raw : Lint_diagnostic.t list; (* rule findings, pre-filter *)
  sc_facts : Lint_callgraph.file_facts option; (* None when unparseable *)
}

let scan_one ~manifest ~root abs =
  let rel = relativize ~root abs in
  let src = Lint_source.load ~rel ~abs in
  let raw = Lint_rules.check ~manifest src in
  let has_mli = Sys.file_exists (abs ^ "i") in
  let iface = Lint_rules.check_iface ~manifest ~rel ~has_mli in
  {
    sc_rel = rel;
    sc_waivers = src.Lint_source.waivers;
    sc_pre = src.Lint_source.parse_diags @ src.Lint_source.waiver_diags;
    sc_raw = raw @ iface;
    sc_facts = Option.map (fun ast -> Lint_callgraph.scan_file ~rel ast) src.Lint_source.ast;
  }

(* ---------------- waiver/manifest filtering (serial) ---------------- *)

(* Tracks which waivers suppressed something, so stale waivers on the
   interprocedural rule-ids can be reported (an inferred finding that
   disappears after a refactor must not leave its waiver behind). *)
type filter_ctx = {
  manifest : Lint_manifest.t;
  waivers_by_file : (string, Lint_waiver.t list) Hashtbl.t;
  used : (string * int * string, unit) Hashtbl.t; (* file, start line, rule *)
  mutable waivers_used : int;
}

let filter_finding ctx (d : Lint_diagnostic.t) =
  if Lint_rule_ids.is_internal d.Lint_diagnostic.rule then Some d
  else
    let ws = Option.value ~default:[] (Hashtbl.find_opt ctx.waivers_by_file d.Lint_diagnostic.file) in
    match Lint_waiver.covering ws ~rule:d.Lint_diagnostic.rule ~line:d.Lint_diagnostic.line with
    | Some w ->
      Hashtbl.replace ctx.used (d.Lint_diagnostic.file, w.Lint_waiver.w_start_line, w.Lint_waiver.w_rule) ();
      ctx.waivers_used <- ctx.waivers_used + 1;
      None
    | None ->
      if Lint_manifest.allowed ctx.manifest ~rule:d.Lint_diagnostic.rule ~path:d.Lint_diagnostic.file
      then None
      else Some d

let stale_waivers ctx scans =
  List.concat_map
    (fun sc ->
      List.filter_map
        (fun (w : Lint_waiver.t) ->
          if
            List.mem w.Lint_waiver.w_rule Lint_rule_ids.interprocedural
            && not (Hashtbl.mem ctx.used (sc.sc_rel, w.Lint_waiver.w_start_line, w.Lint_waiver.w_rule))
          then
            Some
              (Lint_diagnostic.make ~file:sc.sc_rel ~line:w.Lint_waiver.w_start_line ~col:0
                 ~rule:"lint/bad-waiver"
                 (Printf.sprintf
                    "stale waiver: %s suppresses nothing here (the inferred finding is gone); \
                     delete the waiver"
                    w.Lint_waiver.w_rule))
          else None)
        sc.sc_waivers)
    scans

(* ---------------- entry points ---------------- *)

let default_paths = [ "lib"; "bin" ]

let run_full ?(paths = default_paths) ?(jobs = 1) ~root ~manifest_path () =
  let manifest, manifest_diags = Lint_manifest.load manifest_path in
  let files = discover ~root paths in
  let scans = Reflex_experiments.Runner.map ~jobs (scan_one ~manifest ~root) files in
  let ctx =
    {
      manifest;
      waivers_by_file = Hashtbl.create 64;
      used = Hashtbl.create 16;
      waivers_used = 0;
    }
  in
  List.iter (fun sc -> Hashtbl.replace ctx.waivers_by_file sc.sc_rel sc.sc_waivers) scans;
  let per_file =
    List.concat_map (fun sc -> sc.sc_pre @ List.filter_map (filter_finding ctx) sc.sc_raw) scans
  in
  let graph = Lint_callgraph.build (List.filter_map (fun sc -> sc.sc_facts) scans) in
  let inferred, stats = Lint_interproc.run ~manifest ~manifest_path ~graph in
  let inferred = List.filter_map (filter_finding ctx) inferred in
  let stale = stale_waivers ctx scans in
  ( {
      findings =
        List.sort_uniq Lint_diagnostic.compare (manifest_diags @ per_file @ inferred @ stale);
      files_scanned = List.length files;
      waivers_used = ctx.waivers_used;
      rules = Lint_rule_ids.all;
      gstats = Some stats;
    },
    graph )

let run ?paths ?jobs ~root ~manifest_path () = fst (run_full ?paths ?jobs ~root ~manifest_path ())

(* Lint a single file against an already-parsed manifest (fixture tests). *)
let run_on_source ~manifest (src : Lint_source.t) =
  let waivers_used = ref 0 in
  let raw = Lint_rules.check ~manifest src in
  let filtered =
    List.filter
      (fun (d : Lint_diagnostic.t) ->
        if Lint_rule_ids.is_internal d.Lint_diagnostic.rule then true
        else if Lint_waiver.covers src.Lint_source.waivers ~rule:d.Lint_diagnostic.rule ~line:d.Lint_diagnostic.line
        then begin
          incr waivers_used;
          false
        end
        else not (Lint_manifest.allowed manifest ~rule:d.Lint_diagnostic.rule ~path:src.Lint_source.rel))
      raw
  in
  {
    findings =
      List.sort_uniq Lint_diagnostic.compare
        (src.Lint_source.parse_diags @ src.Lint_source.waiver_diags @ filtered);
    files_scanned = 1;
    waivers_used = !waivers_used;
    rules = Lint_rule_ids.all;
    gstats = None;
  }

(* ---------------- rendering ---------------- *)

let to_text r =
  let buf = Buffer.create 256 in
  List.iter
    (fun d ->
      Buffer.add_string buf (Lint_diagnostic.to_string d);
      Buffer.add_char buf '\n')
    r.findings;
  (match r.gstats with
  | None -> ()
  | Some g ->
    Buffer.add_string buf
      (Printf.sprintf
         "callgraph: %d node(s), %d edge(s); taint %d source(s) -> %d function(s), %d identity \
          sink(s)\n"
         g.Lint_interproc.gs_nodes g.Lint_interproc.gs_edges g.Lint_interproc.gs_taint_sources
         g.Lint_interproc.gs_taint_tainted g.Lint_interproc.gs_identity_sinks));
  Buffer.add_string buf
    (Printf.sprintf "reflex-lint: %d file(s), %d rule(s), %d finding(s), %d waiver(s) applied\n"
       r.files_scanned (List.length r.rules) (List.length r.findings) r.waivers_used);
  Buffer.contents buf

let to_json r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"files_scanned\": %d,\n" r.files_scanned);
  Buffer.add_string buf (Printf.sprintf "  \"rule_count\": %d,\n" (List.length r.rules));
  Buffer.add_string buf
    (Printf.sprintf "  \"rules\": [%s],\n"
       (String.concat ", " (List.map Reflex_obs.Trace_event.quote r.rules)));
  Buffer.add_string buf (Printf.sprintf "  \"waivers_used\": %d,\n" r.waivers_used);
  (match r.gstats with
  | None -> ()
  | Some g ->
    Buffer.add_string buf
      (Printf.sprintf
         "  \"callgraph\": {\"nodes\": %d, \"edges\": %d, \"taint_sources\": %d, \
          \"taint_tainted\": %d, \"identity_sinks\": %d},\n"
         g.Lint_interproc.gs_nodes g.Lint_interproc.gs_edges g.Lint_interproc.gs_taint_sources
         g.Lint_interproc.gs_taint_tainted g.Lint_interproc.gs_identity_sinks));
  Buffer.add_string buf (Printf.sprintf "  \"finding_count\": %d,\n" (List.length r.findings));
  Buffer.add_string buf
    (Printf.sprintf "  \"findings\": [%s]\n"
       (String.concat ", " (List.map Lint_diagnostic.to_json r.findings)));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
