(** A single lint finding with a compiler-style rendering. *)

type t = { file : string; line : int; col : int; rule : string; message : string }

val make : file:string -> line:int -> col:int -> rule:string -> string -> t

(** Order by file, then line, then column, then rule — the stable output
    order of every reflex-lint report (determinism applies to the linter
    itself, too). *)
val compare : t -> t -> int

(** [file:line:col: error [rule-id] message] *)
val to_string : t -> string

(** One JSON object; strings escaped. *)
val to_json : t -> string
