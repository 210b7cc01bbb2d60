(* The interprocedural passes over {!Lint_callgraph}:

     det/taint             functions containing a nondeterminism source
                           (ambient PRNG, wall clock, Marshal, unsorted
                           Hashtbl iteration) taint their transitive
                           callers; a tainted [identity_sink] (a
                           byte-identity-checked render) is a finding.
     guard/transitive      an effectful telemetry call reached through a
                           module alias ([module T = Telemetry]), which
                           the per-file [guard/telemetry] rule cannot
                           see, must sit under an enabled-guard in the
                           function that makes it.  Same scope as the
                           per-file rule: every scanned function outside
                           the [allow guard/telemetry] prefixes.

   Every finding carries its chain (sink or caller first, terminal site
   last) both embedded in the message ("via a -> b -> c") and
   structurally, for [--explain].  Iteration is deterministic: the
   worklist is seeded in sorted order and edges are consumed in the
   graph's stable order, so reports are byte-identical across runs and
   [--jobs] settings. *)

module G = Lint_callgraph

type stats = {
  gs_nodes : int;
  gs_edges : int;
  gs_taint_sources : int;
  gs_taint_tainted : int;
  gs_identity_sinks : int;
  gs_findings : int; (* pre-waiver interprocedural findings *)
}

(* ---------------- backward taint propagation ---------------- *)

(* Reverse reachability over applied edges: [roots] maps node id to its
   terminal step (the source site).  Returns, per reached node, the
   forward chain of steps from that node down to the terminal site.
   Guards are telemetry switches, not determinism barriers, so guarded
   edges are followed too.  [cut] prunes nodes policy treats as
   internally safe. *)
let propagate_up ~(graph : G.t) ~roots ~cut =
  let rev = Hashtbl.create 256 in
  List.iter
    (fun (e : G.edge) ->
      if e.G.e_site.G.p_app then
        let prev = Option.value ~default:[] (Hashtbl.find_opt rev e.G.e_to) in
        Hashtbl.replace rev e.G.e_to (prev @ [ e ]))
    graph.G.edges;
  let reached : (string, Lint_diagnostic.step list) Hashtbl.t = Hashtbl.create 128 in
  let queue = Queue.create () in
  List.iter
    (fun (id, terminal) ->
      if (not (Hashtbl.mem reached id)) && not (cut id) then begin
        let self =
          match G.node graph id with
          | Some n -> Lint_diagnostic.step ~name:id ~file:n.G.n_file ~line:n.G.n_line
          | None -> Lint_diagnostic.step ~name:id ~file:"?" ~line:0
        in
        Hashtbl.replace reached id [ self; terminal ];
        Queue.add id queue
      end)
    roots;
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    let chain = Hashtbl.find reached id in
    List.iter
      (fun (e : G.edge) ->
        if (not (Hashtbl.mem reached e.G.e_from)) && not (cut e.G.e_from) then begin
          (* The caller's step anchors at its call site into [id]. *)
          let caller_step =
            Lint_diagnostic.step ~name:e.G.e_from ~file:e.G.e_file ~line:e.G.e_site.G.p_line
          in
          Hashtbl.replace reached e.G.e_from (caller_step :: chain);
          Queue.add e.G.e_from queue
        end)
      (Option.value ~default:[] (Hashtbl.find_opt rev id))
  done;
  reached

(* ---------------- the passes ---------------- *)

let run ~(manifest : Lint_manifest.t) ~manifest_path ~(graph : G.t) =
  let out = ref [] in
  let add d = out := d :: !out in
  let allowed_guard file = Lint_manifest.allowed manifest ~rule:"guard/telemetry" ~path:file in
  let allowed_taint file = Lint_manifest.allowed manifest ~rule:"det/taint" ~path:file in
  let sink_ids =
    List.concat_map
      (fun (f : Lint_manifest.func_entry) ->
        match G.find_in_file graph ~file:f.Lint_manifest.f_file ~func:f.Lint_manifest.f_func with
        | [] ->
          add
            (Lint_diagnostic.make ~file:manifest_path ~line:f.Lint_manifest.f_line ~col:0
               ~rule:"lint/manifest"
               (Printf.sprintf "identity_sink function %S not found in %s (manifest drift?)"
                  f.Lint_manifest.f_func f.Lint_manifest.f_file));
          []
        | ns -> List.map (fun (n : G.node) -> (n.G.n_id, f)) ns)
      (List.rev manifest.Lint_manifest.identity_sinks)
  in

  (* -------- det/taint -------- *)
  let taint_roots =
    List.filter_map
      (fun (n : G.node) ->
        if allowed_taint n.G.n_file then None
        else
          match n.G.n_sources with
          | [] -> None
          | s :: _ ->
            Some
              ( n.G.n_id,
                Lint_diagnostic.step ~name:s.G.s_desc ~file:n.G.n_file ~line:s.G.s_line ))
      graph.G.nodes
  in
  let taint_sources =
    List.fold_left
      (fun acc (n : G.node) ->
        if allowed_taint n.G.n_file then acc else acc + List.length n.G.n_sources)
      0 graph.G.nodes
  in
  let tainted =
    propagate_up ~graph ~roots:taint_roots ~cut:(fun id ->
        match G.node graph id with
        | Some n -> allowed_taint n.G.n_file
        | None -> false)
  in
  List.iter
    (fun (id, (f : Lint_manifest.func_entry)) ->
      match Hashtbl.find_opt tainted id with
      | None -> ()
      | Some chain ->
        let n = match G.node graph id with Some n -> n | None -> assert false in
        let via = Lint_diagnostic.chain_to_string chain in
        (* Anchor at the sink's first hop toward the source — the call
           site in the sink's own file (the line a waiver would sit on).
           A sink containing its own source (chain = [self; terminal])
           anchors at that source site instead; both lines are in the
           sink's file, matching the finding's [file]. *)
        let line =
          match chain with
          | [ _; terminal ] -> terminal.Lint_diagnostic.st_line
          | first :: _ -> first.Lint_diagnostic.st_line
          | [] -> n.G.n_line
        in
        let term =
          match List.rev chain with
          | t :: _ -> Printf.sprintf "%s at %s:%d" t.Lint_diagnostic.st_name t.Lint_diagnostic.st_file t.Lint_diagnostic.st_line
          | [] -> "?"
        in
        add
          (Lint_diagnostic.make ~chain ~file:n.G.n_file ~line ~col:0 ~rule:"det/taint"
             (Printf.sprintf
                "byte-identity-checked render %S reaches a nondeterminism source (%s) via %s; \
                 keep the value out of the render, or waive/allow det/taint with a reason"
                f.Lint_manifest.f_func term via)))
    sink_ids;

  (* -------- guard/transitive -------- *)
  List.iter
    (fun (n : G.node) ->
      if not (allowed_guard n.G.n_file) then
        List.iter
          (fun (x : G.effect_site) ->
            if (not x.G.x_guarded) && not x.G.x_plain then begin
              let chain =
                [
                  Lint_diagnostic.step ~name:n.G.n_id ~file:n.G.n_file ~line:n.G.n_line;
                  Lint_diagnostic.step ~name:x.G.x_path ~file:n.G.n_file ~line:x.G.x_line;
                ]
              in
              add
                (Lint_diagnostic.make ~chain ~file:n.G.n_file ~line:x.G.x_line ~col:x.G.x_col
                   ~rule:"guard/transitive"
                   (Printf.sprintf
                      "effectful %s call (alias-resolved) outside an enabled-guard; wrap it in \
                       [if tel_on then ...] in %S"
                      x.G.x_path n.G.n_name))
            end)
          n.G.n_effects)
    graph.G.nodes;

  let findings = List.rev !out in
  let stats =
    {
      gs_nodes = List.length graph.G.nodes;
      gs_edges = List.length graph.G.edges;
      gs_taint_sources = taint_sources;
      gs_taint_tainted = Hashtbl.length tainted;
      gs_identity_sinks = List.length manifest.Lint_manifest.identity_sinks;
      gs_findings = List.length findings;
    }
  in
  (findings, stats)
