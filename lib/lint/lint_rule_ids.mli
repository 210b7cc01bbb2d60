(** The closed set of reflex-lint rule identifiers. *)

val determinism : string list
val guards : string list
val interface : string list

(** Rule-ids for problems with the lint inputs themselves (parse errors,
    malformed waivers/manifest lines).  Never waivable. *)
val internal : string list

(** All waivable rule-ids (excludes {!internal}). *)
val all : string list

val is_known : string -> bool
val is_internal : string -> bool

(** One-paragraph explanation of a rule-id ([reflex_lint --explain]). *)
val describe : string -> string
