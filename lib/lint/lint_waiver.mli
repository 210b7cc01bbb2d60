(** Inline waiver comments:
    [(* reflex-lint: allow <rule-id> — <reason> *)].

    A waiver covers findings of its rule on the comment's own line(s)
    and the line directly below the comment.  The reason is mandatory;
    unknown rule-ids and missing reasons are [lint/bad-waiver] findings. *)

type t = { w_start_line : int; w_end_line : int; w_rule : string; w_reason : string }

(** Extract waivers (and bad-waiver findings) from source text. *)
val scan : file:string -> string -> t list * Lint_diagnostic.t list

(** Does some waiver cover [rule] at [line]? *)
val covers : t list -> rule:string -> line:int -> bool
