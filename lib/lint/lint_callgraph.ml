(* Cross-module call graph over the scanned tree, built from the
   compiler-libs parsetrees in two phases:

     1. [scan_file] (pure, per file, safe to fan out across domains):
        collect every definition (toplevel bindings, including inside
        nested [module X = struct .. end]), every module alias
        ([module T = Reflex_telemetry.Telemetry]), and every identifier
        reference with its location, whether it sits in function
        position of an application, and whether it is under an
        enabled-guard conditional.

     2. [build] (serial, whole-tree): resolve references to definitions
        with a module-alias-aware resolver and assemble the node/edge
        sets plus the per-node facts the interprocedural passes consume
        (determinism-taint sources, effectful telemetry sites).

   Resolution leans on a repo invariant the driver checks implicitly:
   compilation-unit basenames are unique across lib/ and bin/, so a
   qualified head like [Sim] or [Telemetry] names exactly one file.
   Library umbrella modules ([Reflex_obs] etc.) are handled by one
   alias hop through the umbrella's own [module X = X] re-exports, so
   [Reflex_core.Server.restart] and a local [module Server =
   Reflex_core.Server] both land on the same node.

   Soundness caveats (see DESIGN.md §15): calls through function values
   (higher-order arguments, record fields of closures, first-class
   modules) produce no edge at the eventual call site — only the
   "mention" edge where the function name appears.  The taint pass
   follows applied edges only. *)

type site = { p_line : int; p_col : int; p_app : bool; p_guarded : bool }

type edge = {
  e_from : string;
  e_to : string;
  e_file : string; (* caller's file: where the call site lives *)
  e_site : site;
}

(* A call whose alias-expanded path lands in the effectful-telemetry set
   ([Telemetry.span] & friends, [Monitor.tick]).  [x_plain] marks sites
   the per-file [guard/telemetry] rule already sees (raw head
   [Telemetry]/[Monitor]); [guard/transitive] only reports the rest. *)
type effect_site = { x_path : string; x_line : int; x_col : int; x_guarded : bool; x_plain : bool }

(* A determinism-taint source: ambient PRNG, wall clock, [Marshal], or
   Hashtbl iteration in a definition that never sorts. *)
type source_site = { s_desc : string; s_line : int; s_col : int }

type node = {
  n_id : string; (* "Scheduler.schedule", "Flight.Kind.to_string" *)
  n_file : string;
  n_line : int;
  n_name : string; (* last path component *)
  n_effects : effect_site list;
  n_sources : source_site list;
}

type t = {
  nodes : node list; (* sorted by id *)
  edges : edge list; (* sorted by (from, line, col, to) *)
  node_tbl : (string, node) Hashtbl.t;
}

(* ---------------- phase 1: per-file scan ---------------- *)

type ref_site = {
  r_parts : string list; (* raw longident parts at the site *)
  r_line : int;
  r_col : int;
  r_app : bool;
  r_guarded : bool;
}

type def = {
  d_id : string;
  d_file : string;
  d_line : int;
  d_name : string;
  d_scope : string list; (* enclosing module path, file module first *)
  d_target : bool; (* resolvable by name ([<init>] blocks are not) *)
  d_refs : ref_site list;
  d_has_sort : bool;
}

type file_facts = {
  ff_file : string;
  ff_module : string; (* capitalized basename *)
  ff_aliases : (string * string list) list; (* local alias -> target parts *)
  ff_defs : def list;
}

let module_of_file rel =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename rel))

open Parsetree

(* Walk one definition body: collect references (with application /
   guard flags) and whether any sort call appears.  A reference is
   guarded when an enabled-guard conditional in this definition encloses
   it, as in the per-file [guard/telemetry] rule. *)
let scan_body body =
  let refs = ref [] and has_sort = ref false in
  let note_ref ~app ~guarded lid (loc : Location.t) =
    let line, col = Lint_rules.pos_of loc in
    let parts = Lint_rules.lid_parts lid in
    (match List.rev parts with
    | last :: _ -> if Lint_rules.is_sort_name last then has_sort := true
    | [] -> ());
    refs := { r_parts = parts; r_line = line; r_col = col; r_app = app; r_guarded = guarded } :: !refs
  in
  let rec walk ~guarded e =
    match e.pexp_desc with
    | Pexp_ifthenelse (c, t, eo) ->
      walk ~guarded c;
      let g = guarded || Lint_rules.is_guard_expr c in
      walk ~guarded:g t;
      Option.iter (walk ~guarded:g) eo
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt = lid; loc }; _ }, args) ->
      note_ref ~app:true ~guarded lid loc;
      List.iter (fun (_, a) -> walk ~guarded a) args
    | Pexp_ident { txt = lid; loc } -> note_ref ~app:false ~guarded lid loc
    | _ ->
      let it =
        {
          Ast_iterator.default_iterator with
          expr = (fun _ child -> if child != e then walk ~guarded child);
        }
      in
      Ast_iterator.default_iterator.expr it e
  in
  walk ~guarded:false body;
  (List.rev !refs, !has_sort)

let scan_file ~rel (str : structure) =
  let file_mod = module_of_file rel in
  let aliases = ref [] and defs = ref [] in
  let add_def ~scope ~name ~target ~line (body : expression) =
    let refs, has_sort = scan_body body in
    let id = String.concat "." (List.rev scope @ [ name ]) in
    defs :=
      {
        d_id = id;
        d_file = rel;
        d_line = line;
        d_name = name;
        d_scope = List.rev scope;
        d_target = target;
        d_refs = refs;
        d_has_sort = has_sort;
      }
      :: !defs
  in
  (* [scope] is the reversed module path, file module last. *)
  let rec items ~scope its =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              let rec pat_name p =
                match p.ppat_desc with
                | Ppat_var v -> Some v.Location.txt
                | Ppat_constraint (p, _) -> pat_name p
                | _ -> None
              in
              let line, _ = Lint_rules.pos_of vb.pvb_loc in
              match pat_name vb.pvb_pat with
              | Some n -> add_def ~scope ~name:n ~target:true ~line vb.pvb_expr
              | None ->
                (* [let () = ...] module-init code: a reference source
                   (it keeps registration targets reachable) but never a
                   resolution target. *)
                add_def ~scope ~name:(Printf.sprintf "<init:%d>" line) ~target:false ~line
                  vb.pvb_expr)
            vbs
        | Pstr_eval (e, _) ->
          let line, _ = Lint_rules.pos_of item.pstr_loc in
          add_def ~scope ~name:(Printf.sprintf "<init:%d>" line) ~target:false ~line e
        | Pstr_module mb -> binding ~scope mb
        | Pstr_recmodule mbs -> List.iter (binding ~scope) mbs
        | _ -> ())
      its
  and binding ~scope mb =
    let name = match mb.pmb_name.Location.txt with Some n -> n | None -> "_" in
    match mb.pmb_expr.pmod_desc with
    | Pmod_structure s -> items ~scope:(name :: scope) s
    | Pmod_ident { txt = lid; _ } ->
      aliases := (name, Lint_rules.lid_parts lid) :: !aliases
    | _ -> ()
  in
  items ~scope:[ file_mod ] str;
  {
    ff_file = rel;
    ff_module = file_mod;
    ff_aliases = List.rev !aliases;
    ff_defs = List.rev !defs;
  }

(* ---------------- phase 2: resolution + assembly ---------------- *)

let taint_source_of parts ~has_sort =
  let head = match parts with h :: _ -> h | [] -> "" in
  let last = match List.rev parts with l :: _ -> l | [] -> "" in
  let path = String.concat "." parts in
  if head = "Random" then Some (path ^ " (ambient PRNG)")
  else if List.mem path Lint_rules.clock_paths then Some (path ^ " (wall clock)")
  else if head = "Marshal" then Some (path ^ " (Marshal bytes)")
  else if
    head = "Hashtbl"
    && List.mem last [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]
    && not has_sort
  then Some (path ^ " (unsorted Hashtbl iteration)")
  else None

let build (facts : file_facts list) =
  (* Deterministic inputs: sort by file, then keep per-file order. *)
  let facts = List.sort (fun a b -> String.compare a.ff_file b.ff_file) facts in
  let file_tbl = Hashtbl.create 64 in
  List.iter (fun ff -> Hashtbl.replace file_tbl ff.ff_module ff) facts;
  let def_tbl = Hashtbl.create 512 in
  List.iter
    (fun ff ->
      List.iter (fun d -> if d.d_target then Hashtbl.replace def_tbl d.d_id d) ff.ff_defs)
    facts;
  (* Expand the head of [parts] through [ff]'s local aliases, then
     through umbrella re-exports ([Reflex_obs.Flight] -> [Flight]),
     bounded to avoid alias cycles. *)
  let rec expand ~(ff : file_facts) ~fuel parts =
    if fuel = 0 then parts
    else
      match parts with
      | head :: tl -> (
        match List.assoc_opt head ff.ff_aliases with
        | Some target -> expand ~ff ~fuel:(fuel - 1) (target @ tl)
        | None -> (
          match (Hashtbl.find_opt file_tbl head, tl) with
          | Some owner, next :: rest when Hashtbl.mem file_tbl next = false -> (
            (* One umbrella hop: [Reflex_core.Server.f] -> [Server.f]. *)
            match List.assoc_opt next owner.ff_aliases with
            | Some target -> expand ~ff ~fuel:(fuel - 1) (target @ rest)
            | None -> parts)
          | Some _, next :: rest when Hashtbl.mem file_tbl next ->
            (* [Reflex_x.Sim.f] where [Sim] is itself a unit: drop the
               wrapper head. *)
            expand ~ff ~fuel:(fuel - 1) (next :: rest)
          | _ -> parts))
      | [] -> parts
  in
  (* Resolve an expanded path to a definition id. *)
  let resolve ~(d : def) parts =
    match parts with
    | [] -> None
    | [ f ] ->
      (* Unqualified: innermost enclosing module scope outward. *)
      let rec try_scopes scope =
        let cand = String.concat "." (scope @ [ f ]) in
        if Hashtbl.mem def_tbl cand then Some cand
        else
          match scope with
          | [] -> None
          | _ -> try_scopes (List.filteri (fun i _ -> i < List.length scope - 1) scope)
      in
      try_scopes d.d_scope
    | _ ->
      let joined = String.concat "." parts in
      (* Submodule reference relative to an enclosing scope first
         ([Kind.to_string] inside flight.ml -> [Flight.Kind.to_string]),
         then absolute. *)
      let rec try_scopes scope =
        let cand = String.concat "." (scope @ parts) in
        if Hashtbl.mem def_tbl cand then Some cand
        else
          match scope with
          | [] -> None
          | _ -> try_scopes (List.filteri (fun i _ -> i < List.length scope - 1) scope)
      in
      (match try_scopes d.d_scope with
      | Some id -> Some id
      | None -> if Hashtbl.mem def_tbl joined then Some joined else None)
  in
  let nodes = ref [] and edges = ref [] in
  List.iter
    (fun ff ->
      List.iter
        (fun d ->
          let effects = ref [] and sources = ref [] and out = ref [] in
          List.iter
            (fun r ->
              let parts = expand ~ff ~fuel:4 r.r_parts in
              let raw_head = match r.r_parts with h :: _ -> h | [] -> "" in
              (if r.r_app && Lint_rules.effectful_telemetry_path parts then
                 effects :=
                   {
                     x_path = String.concat "." parts;
                     x_line = r.r_line;
                     x_col = r.r_col;
                     x_guarded = r.r_guarded;
                     x_plain = raw_head = "Telemetry" || raw_head = "Monitor";
                   }
                   :: !effects);
              (match taint_source_of parts ~has_sort:d.d_has_sort with
              | Some desc -> sources := { s_desc = desc; s_line = r.r_line; s_col = r.r_col } :: !sources
              | None -> ());
              match resolve ~d parts with
              | Some target when target <> d.d_id ->
                let e =
                  {
                    e_from = d.d_id;
                    e_to = target;
                    e_file = d.d_file;
                    e_site = { p_line = r.r_line; p_col = r.r_col; p_app = r.r_app; p_guarded = r.r_guarded };
                  }
                in
                out := e :: !out
              | _ -> ())
            d.d_refs;
          nodes :=
            {
              n_id = d.d_id;
              n_file = d.d_file;
              n_line = d.d_line;
              n_name = d.d_name;
              n_effects = List.rev !effects;
              n_sources = List.rev !sources;
            }
            :: !nodes;
          edges := List.rev_append !out !edges)
        ff.ff_defs)
    facts;
  let nodes = List.sort (fun a b -> String.compare a.n_id b.n_id) !nodes in
  let edges =
    List.sort
      (fun a b ->
        match String.compare a.e_from b.e_from with
        | 0 -> (
          match Stdlib.compare a.e_site.p_line b.e_site.p_line with
          | 0 -> (
            match Stdlib.compare a.e_site.p_col b.e_site.p_col with
            | 0 -> String.compare a.e_to b.e_to
            | c -> c)
          | c -> c)
        | c -> c)
      !edges
  in
  let node_tbl = Hashtbl.create (List.length nodes) in
  List.iter (fun n -> Hashtbl.replace node_tbl n.n_id n) nodes;
  { nodes; edges; node_tbl }

(* ---------------- accessors ---------------- *)

let node t id = Hashtbl.find_opt t.node_tbl id

(* Definitions in [file] whose toplevel name is [func] (nested-module
   definitions do not match manifest [identity_sink] entries, which name
   toplevel functions only). *)
let find_in_file t ~file ~func =
  List.filter
    (fun n -> n.n_file = file && n.n_name = func && n.n_id = module_of_file file ^ "." ^ func)
    t.nodes

(* ---------------- exports ---------------- *)

let to_dot t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph reflex_callgraph {\n  rankdir=LR;\n  node [shape=box,fontsize=9];\n";
  List.iter
    (fun n ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" [label=\"%s\\n%s:%d\"];\n" n.n_id n.n_id n.n_file n.n_line))
    t.nodes;
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" -> \"%s\"%s;\n" e.e_from e.e_to
           (if not e.e_site.p_app then " [style=dashed]"
            else if e.e_site.p_guarded then " [color=gray]"
            else "")))
    t.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_json t =
  let buf = Buffer.create 8192 in
  let esc = Reflex_obs.Trace_event.quote in
  Buffer.add_string buf "{\n  \"nodes\": [";
  List.iteri
    (fun i n ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf {|{"id":%s,"file":%s,"line":%d}|} (esc n.n_id) (esc n.n_file) n.n_line))
    t.nodes;
  Buffer.add_string buf "],\n  \"edges\": [";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf {|{"from":%s,"to":%s,"file":%s,"line":%d,"app":%b,"guarded":%b}|}
           (esc e.e_from) (esc e.e_to) (esc e.e_file) e.e_site.p_line e.e_site.p_app
           e.e_site.p_guarded))
    t.edges;
  Buffer.add_string buf "],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"node_count\": %d,\n  \"edge_count\": %d\n}\n" (List.length t.nodes)
       (List.length t.edges));
  Buffer.contents buf
