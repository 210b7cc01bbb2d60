(** The reflex-lint rule families as syntactic Parsetree passes.
    Approximation limits are documented in DESIGN.md §10. *)

(** Run the AST rule families (determinism, domain-safety, guards) on
    one parsed source file.  Waiver and manifest
    [allow] filtering happen in {!Lint_driver}, not here. *)
val check : manifest:Lint_manifest.t -> Lint_source.t -> Lint_diagnostic.t list

(** Interface hygiene: flag a [.ml] with no matching [.mli] unless
    manifest-exempted.  The driver supplies the filesystem fact. *)
val check_iface : manifest:Lint_manifest.t -> rel:string -> has_mli:bool -> Lint_diagnostic.t list

(**/**)

(** Shared AST primitives, reused by {!Lint_callgraph} so the
    interprocedural passes classify sites exactly like the per-file
    rules do. *)

val lid_parts : Longident.t -> string list
val pos_of : Location.t -> int * int

(** Wall-clock read paths recognised by [det/clock] (and as taint
    sources). *)
val clock_paths : string list

val is_sort_name : string -> bool

(** Is this conditional's condition an enabled/armed/[*_on] guard? *)
val is_guard_expr : Parsetree.expression -> bool

(** [Telemetry]/[Monitor] calls that record when enabled, keyed on the
    dotted path (module head and function name). *)
val effectful_telemetry_path : string list -> bool
