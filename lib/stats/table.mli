(** Aligned plain-text table rendering for the experiment renders, so every
    reproduced paper table/figure prints as readable rows. *)

type t

(** [create ~title ~columns] starts an empty table. *)
val create : title:string -> columns:string list -> t

(** Append a row; must have as many cells as there are columns. *)
val add_row : t -> string list -> unit

(** Convenience: render a float with the given number of decimals. *)
val cell_f : ?decimals:int -> float -> string

val cell_i : int -> string

(** Render to a string (title, header, separator, rows). *)
val render : t -> string

(** [print t] renders to stdout. *)
val print : t -> unit
