(** A single lint finding with a compiler-style rendering. *)

(** One hop of an interprocedural propagation path. *)
type step = { st_name : string; st_file : string; st_line : int }

type t = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
  chain : step list;
      (** propagation path for interprocedural findings (seed/sink first,
          terminal site last); [[]] for per-file findings *)
}

val make : ?chain:step list -> file:string -> line:int -> col:int -> rule:string -> string -> t
val step : name:string -> file:string -> line:int -> step

(** ["a -> b -> c"] — the compact form embedded in messages. *)
val chain_to_string : step list -> string

(** Order by file, then line, then column, then rule — the stable output
    order of every reflex-lint report (determinism applies to the linter
    itself, too). *)
val compare : t -> t -> int

(** [file:line:col: error [rule-id] message] *)
val to_string : t -> string

(** One JSON object; strings escaped. *)
val to_json : t -> string
