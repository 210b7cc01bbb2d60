(** The flexible I/O tester (Figure 7a): [threads] workers, each keeping
    [qd] random 4KB requests in flight for [duration]. *)

open Reflex_engine

type result = {
  iops : float;
  mbps : float;
  mean_us : float;
  p95_us : float;
  completed : int;
}

(** [run sim path ~threads ~qd ~bytes ~duration k] — [k result] fires once
    the run (plus drain) ends.  A warmup of 20%% of [duration] is
    discarded.  Each worker thread charges 7us of CPU per I/O
    (~140K IOPS/thread — the Linux submission-path cost that makes FIO
    need 5-6 threads to reach peak throughput, §5.6). *)
val run :
  Sim.t ->
  Access_path.t ->
  threads:int ->
  qd:int ->
  ?bytes:int ->
  ?read_ratio:float ->
  duration:Time.t ->
  ?seed:int64 ->
  unit ->
  (result -> unit) ->
  unit
