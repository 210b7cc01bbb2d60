(** The reflex-lint rule families as syntactic Parsetree passes.
    Approximation limits are documented in DESIGN.md §10. *)

(** Run the AST rule families (determinism, domain-safety, guards) on
    one parsed source file.  Waiver and manifest
    [allow] filtering happen in {!Lint_driver}, not here. *)
val check : manifest:Lint_manifest.t -> Lint_source.t -> Lint_diagnostic.t list

(** Interface hygiene: flag a [.ml] with no matching [.mli] unless
    manifest-exempted.  The driver supplies the filesystem fact. *)
val check_iface : manifest:Lint_manifest.t -> rel:string -> has_mli:bool -> Lint_diagnostic.t list
