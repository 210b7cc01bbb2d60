(** Lint orchestration: discovery, per-file rule passes and
    waiver/manifest filtering (fanned across domains), deterministic
    rendering.  Reports are byte-identical for any [jobs] value. *)

type report = {
  findings : Lint_diagnostic.t list;  (** sorted, waiver/manifest-filtered *)
  files_scanned : int;
  waivers_used : int;
}

val clean : report -> bool

(** Lint every [.ml] under [paths] (default [lib bin], resolved
    against [root]).  The manifest is loaded from [manifest_path]; a
    missing or malformed manifest yields [lint/manifest] findings.
    [jobs] (default 1) fans the per-file stage across domains. *)
val run :
  ?paths:string list -> ?jobs:int -> root:string -> manifest_path:string -> unit -> report

(** Lint one in-memory source against a given manifest (fixture tests).
    Runs the AST families only — not [iface/mli], which needs the
    filesystem. *)
val run_on_source : manifest:Lint_manifest.t -> Lint_source.t -> report

(** Compiler-style text report plus a one-line summary. *)
val to_text : report -> string

(** Machine-readable report (hand-rolled JSON, stable field order). *)
val to_json : report -> string
