(** Always-on flight recorder: a fixed-size, allocation-free binary ring of
    compact dataplane records.

    Unlike the span ring in [lib/telemetry] — which exists only when
    telemetry is armed — the flight recorder is designed to stay enabled in
    every run: one record is five array stores and a {!Cursor} bump, cheap
    enough to write unconditionally from the scheduler round and the
    dataplane cycle.  Its scheduler kinds are the one log of Algorithm-1
    decisions ([Telemetry.decisions_report] prints them).  The ring holds
    the most recent [capacity] records; wraparound silently overwrites the
    oldest, so at any instant the ring is a sliding forensic window over
    the last few hundred microseconds of dataplane behaviour.  {!snapshot}
    freezes the tail of that window (e.g. when a [Monitor.Alerts] alert
    fires) for rendering by {!Flight_dump}.

    Records never influence simulation state and carry only sim time, so a
    snapshot is byte-for-byte deterministic across same-seed reruns and
    serial vs. domain-parallel fan-out.

    The shared {!disabled} instance is never mutated and is safe to share
    across domains; every record operation on it is a no-op behind one
    immutable bool read. *)

open Reflex_engine

(** Compact record kinds.  The [a]/[b]/[v] payload fields are interpreted
    per kind; kinds that reference a string (fault labels, alert rules)
    carry an id from the cold-path {!intern} table in [a] (and [b] for
    [Remediate]'s outcome). *)
module Kind : sig
  type t =
    | Refill  (** per-round token refill: a=tenant, b=thread, v=tokens added *)
    | Grant  (** requests released: a=tenant, b=count, v=tokens after *)
    | Throttle  (** demand left queued: a=tenant, b=thread, v=unmet demand *)
    | Deficit  (** LC balance under NEG_LIMIT: a=tenant, b=thread, v=balance *)
    | Donate  (** surplus to global bucket: a=tenant, b=thread, v=amount *)
    | Bucket_take  (** BE claim from global bucket: a=tenant, b=thread, v=amount *)
    | Bucket_reset  (** round marked bucket reset: b=thread, v=level *)
    | Idle_drain  (** idle BE balance returned: a=tenant, b=thread, v=amount *)
    | Queue_depth  (** dataplane cycle: a=thread, b=outstanding, v=rx depth *)
    | Demote  (** LC tenant demoted to BE: a=tenant.  Nothing writes it;
                  kept so every later kind keeps its code. *)
    | Fault_on  (** fault window opened: a=label id *)
    | Fault_off  (** fault window closed: a=label id *)
    | Alert_fire  (** alert edge up: a=rule label id, b=severity *)
    | Alert_resolve  (** alert edge down: a=rule label id, b=severity *)
    | Remediate  (** remediation applied: a=rule label id, b=outcome label id *)
    | Mark  (** manual/CLI mark: a=label id *)
    | Migrate  (** rack tenant migration started: a=tenant, b=dst server, v=src server *)
    | Balance
        (** rack balancing decision: a=chosen server, b=policy index, v=sampled depth *)
    | Hop
        (** rack trace hop stamp: a=rack request id, b=(tenant lsl 3) lor hop
            index (0=pick 1=ingress 2=submit 3=complete 4=reply), v=per-hop
            payload (see [Rack_obs]) *)

  val count : int
  val to_int : t -> int
  val of_int : int -> t
  val name : t -> string

  (** True for kinds whose [a] field is an interned label id. *)
  val a_is_label : t -> bool
end

type t

(** The shared always-disabled recorder: every operation is a no-op. *)
val disabled : t

(** [create ()] makes a recorder.  [enabled:false] builds a real but inert
    instance (distinct from {!disabled}), used to prove that a disarmed
    recorder perturbs nothing.  [capacity] is the ring size in records
    (default [1 lsl 15]). *)
val create : ?enabled:bool -> ?capacity:int -> unit -> t

val enabled : t -> bool
val capacity : t -> int

(** Records ever written (including overwritten ones). *)
val total : t -> int

(** Records currently retained ([<= capacity]). *)
val retained : t -> int

(** Records lost to wraparound. *)
val dropped : t -> int

(** [record t ~now ~kind ~a ~b ~v] writes one record.  Allocation-free and
    branch-cheap; a no-op when disabled. *)
val record : t -> now:Time.t -> kind:Kind.t -> a:int -> b:int -> v:float -> unit

(** [intern t label] returns a stable small id for [label], creating one on
    first use.  Cold path (fault arming, alert wiring); ids are assigned in
    first-use order, which is deterministic. Returns [-1] when disabled. *)
val intern : t -> string -> int

(** [label t id] resolves an interned id ("?" when unknown). *)
val label : t -> int -> string

(** Oldest-first iteration over the retained window. *)
val iter :
  t -> (time:Time.t -> kind:Kind.t -> a:int -> b:int -> v:float -> unit) -> unit

(** A frozen copy of the ring tail: every retained record with
    [time >= snap_now - snap_window] (boundary inclusive), oldest first,
    plus a copy of the intern table. *)
type snapshot = private {
  snap_now : Time.t;
  snap_window : Time.t;
  snap_total : int;  (** records ever written when the snapshot was taken *)
  snap_dropped : int;  (** records already lost to wraparound at that point *)
  snap_kind_written : int array;
      (** per-kind records ever written, indexed by [Kind.to_int] *)
  snap_kind_retained : int array;
      (** per-kind records still in the ring at snapshot time (full ring, not
          just the window), indexed by [Kind.to_int] *)
  s_times : Time.t array;
  s_kinds : int array;
  s_a : int array;
  s_b : int array;
  s_v : float array;
  s_labels : string array;
}

(** [snapshot t ~now ~window] freezes the last [window] of sim time.  Cold
    path: allocates the copy.  An empty snapshot when disabled. *)
val snapshot : t -> now:Time.t -> window:Time.t -> snapshot

val snap_length : snapshot -> int

(** Per-kind accessors over the snapshot accounting arrays:
    [snap_kind_dropped s k = snap_kind_written s k - snap_kind_retained s k]
    is exactly what wraparound overwrote for that kind. *)
val snap_kind_written : snapshot -> Kind.t -> int

val snap_kind_retained : snapshot -> Kind.t -> int
val snap_kind_dropped : snapshot -> Kind.t -> int
