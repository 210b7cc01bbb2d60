(** Cross-module call graph over the scanned tree: definitions resolved
    from the parsetree with a module-alias-aware resolver, plus the
    per-definition facts (determinism-taint sources, effectful telemetry
    sites) the interprocedural passes consume.
    Construction semantics and soundness caveats: DESIGN.md §15. *)

type site = { p_line : int; p_col : int; p_app : bool; p_guarded : bool }

type edge = {
  e_from : string;
  e_to : string;
  e_file : string;  (** caller's file: where the call site lives *)
  e_site : site;
}

(** A call whose alias-expanded path is an effectful telemetry entry
    ([Telemetry.span] & friends, [Monitor.tick]).  [x_plain] marks the
    sites the per-file [guard/telemetry] rule already sees. *)
type effect_site = { x_path : string; x_line : int; x_col : int; x_guarded : bool; x_plain : bool }

(** A determinism-taint source site (ambient PRNG, wall clock,
    [Marshal], unsorted Hashtbl iteration). *)
type source_site = { s_desc : string; s_line : int; s_col : int }

type node = {
  n_id : string;  (** ["Scheduler.schedule"], ["Flight.Kind.to_string"] *)
  n_file : string;
  n_line : int;
  n_name : string;
  n_effects : effect_site list;
  n_sources : source_site list;
}

type t = {
  nodes : node list;  (** sorted by id *)
  edges : edge list;  (** sorted by (from, line, col, to) *)
  node_tbl : (string, node) Hashtbl.t;
}

(** Per-file scan result; pure, safe to compute in parallel workers. *)
type file_facts

val scan_file : rel:string -> Parsetree.structure -> file_facts
val build : file_facts list -> t

val node : t -> string -> node option

(** Toplevel definitions in [file] named [func] (how manifest
    [identity_sink] entries address nodes). *)
val find_in_file : t -> file:string -> func:string -> node list

(** Graphviz rendering: mention edges dashed, guarded calls gray. *)
val to_dot : t -> string

(** Machine-readable nodes/edges export (hand-rolled JSON, stable
    order). *)
val to_json : t -> string
