(** Declarative alerting rules over the windowed {!Tsdb}.

    Each rule is a check evaluated once per closed window.  A rule
    fires on the first violating window and resolves on the first clean
    one.

    Rules are evaluated in name order and events appended in that
    order, so the alert timeline of a same-seed run is byte-identical
    serial or under [Runner --jobs] — nothing here depends on wall
    clock, hash order or domain count. *)

open Reflex_engine

type severity = Info | Ticket | Page

val severity_label : severity -> string

type rule

(** [rule ~name check]: [check tsdb window] returns [Some detail] when
    the condition is violated for the freshly closed [window].
    Default [severity = Ticket]. *)
val rule :
  ?severity:severity -> name:string -> (Tsdb.t -> Tsdb.window -> string option) -> rule

(** SRE multi-window multi-burn-rate rule: fires when the burn rate
    (see {!Budget.burn_rate_of}) of the [good]/[bad] Tsdb value series
    exceeds both factors, over the newest [short = (windows, factor)]
    and [long = (windows, factor)] window spans.  E.g.
    [~short:(1, 14.) ~long:(10, 6.)] is "1 window at 14x AND 10 windows
    at 6x".
    @raise Invalid_argument unless [1 <= short windows <= long windows]. *)
val burn_rule :
  ?severity:severity ->
  name:string ->
  target:float ->
  good:string ->
  bad:string ->
  short:int * float ->
  long:int * float ->
  unit ->
  rule

type kind = Fired | Resolved

val kind_label : kind -> string

type event = private {
  e_time : Time.t;
  e_rule : string;
  e_severity : severity;
  e_kind : kind;
  e_detail : string;
}

type t

(** [annotate now] is called once per {e fired} event; when it returns
    [Some extra] the text is appended to the event detail (the
    {!Monitor} facade uses it to name overlapping fault windows). *)
val create : ?annotate:(Time.t -> string option) -> unit -> t

(** @raise Invalid_argument on duplicate rule names. *)
val add : t -> rule -> unit

(** Evaluate every rule against the newest closed window ([[]] if the
    Tsdb has none yet).  Returns the events emitted by this step, in
    rule-name order. *)
val step : t -> Tsdb.t -> now:Time.t -> event list

(** Names of rules currently in the firing state, name-sorted. *)
val firing : t -> string list

(** Full timeline, oldest first. *)
val events : t -> event list

(** Fired transitions ever (resolves not counted). *)
val fired_total : t -> int

val report : t -> string
