(** The interprocedural passes ([det/taint], [guard/transitive]) over
    {!Lint_callgraph}.  Semantics: DESIGN.md §15.  Deterministic: the
    worklist seeds in sorted order and consumes edges in the graph's
    stable order, so reports are byte-identical across runs and [--jobs]
    settings. *)

type stats = {
  gs_nodes : int;
  gs_edges : int;
  gs_taint_sources : int;  (** nondeterminism source sites (post-allow) *)
  gs_taint_tainted : int;  (** functions reached by backward taint *)
  gs_identity_sinks : int;  (** manifest [identity_sink] entries *)
  gs_findings : int;  (** interprocedural findings, pre-waiver *)
}

(** Returns the (unfiltered) findings in stable order and the pass
    stats. *)
val run :
  manifest:Lint_manifest.t ->
  manifest_path:string ->
  graph:Lint_callgraph.t ->
  Lint_diagnostic.t list * stats
