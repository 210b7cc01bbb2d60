(** Checked-in, directory- and symbol-scoped lint policy (`lint.manifest`).

    Every entry carries a mandatory written justification after an
    em-dash (or [--]); entries without one are [lint/manifest] findings. *)

type t = {
  allows : (string * string * string) list;  (** rule-id, path prefix, reason *)
  domain_safe : (string * string * string) list;  (** file, ident, reason *)
  iface_exempt : (string * string) list;  (** file, reason *)
}

val empty : t

(** Parse manifest text; malformed lines become [lint/manifest] findings
    (the well-formed remainder still applies). *)
val parse : file:string -> string -> t * Lint_diagnostic.t list

(** Load from disk; a missing manifest is a finding. *)
val load : string -> t * Lint_diagnostic.t list

(** Is [rule] suppressed for root-relative [path] by an [allow] prefix? *)
val allowed : t -> rule:string -> path:string -> bool

val domain_safe_idents : t -> path:string -> string list
val iface_exempted : t -> path:string -> bool

(**/**)

(** Split ["payload — reason"] (em-dash or [--]); [None] when the reason
    is missing or empty.  Shared with {!Lint_waiver}. *)
val split_reason : string -> (string * string) option

(** Whitespace-split, dropping empties. *)
val words : string -> string list
