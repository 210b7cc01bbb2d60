(** The one JSON writer: string escaping, values and objects, and the
    Chrome [trace_event] emitter shared by every exporter (request traces,
    flight dumps, the rack rollup, alert instants, lint reports). *)

open Reflex_engine

type value =
  | Int of int
  | Num of float  (** [%g] *)
  | Us of Time.t  (** microseconds, see {!add_us} *)
  | Str of string  (** escaped *)
  | Bool of bool
  | Null
  | Obj of (string * value) list
  | Arr of value list

(** [s] as a quoted JSON string: double quote, backslash, newline, tab
    and carriage return get their short escapes, other control
    characters a 4-digit [\u] escape. *)
val quote : string -> string

(** Append an integer in decimal. *)
val add_int : Buffer.t -> int -> unit

(** Append a ns time as µs with exactly three decimals:
    [ns / 1000 "." (ns mod 1000)], with a leading [-] when negative.
    Integer arithmetic throughout; for every |ns| < 2{^50} the bytes equal
    [%.3f] of the float [Time.to_float_us t]. *)
val add_us : Buffer.t -> Time.t -> unit

(** {!add_us} as a string. *)
val us : Time.t -> string

val add_value : Buffer.t -> value -> unit

(** One JSON object with no whitespace, keys in list order. *)
val add_object : Buffer.t -> (string * value) list -> unit

(** {1 trace_event sequences} *)

(** A comma-separated run of items written into one buffer. *)
type seq

(** [seq buf ~sep] starts a run whose items are separated by [sep]. *)
val seq : Buffer.t -> sep:string -> seq

(** Append one pre-rendered item. *)
val raw : seq -> string -> unit

(** Append one object item (see {!add_object}). *)
val obj : seq -> (string * value) list -> unit

(** Append one trace event, written field by field straight into the
    buffer.  Keys always come in the order name, cat, ph, bp, id, s, ts,
    dur, pid, tid, args; absent options are omitted; [ts]/[dur] render
    through {!add_us}. *)
val event :
  seq ->
  name:string ->
  ?cat:string ->
  ph:string ->
  ?bp:string ->
  ?id:int ->
  ?s:string ->
  ?ts:Time.t ->
  ?dur:Time.t ->
  ?pid:int ->
  ?tid:int ->
  ?args:(string * value) list ->
  unit ->
  unit

(** An event's fixed fields, name through [s], rendered once: for
    exporters that write many events differing only in the rest. *)
type head

val head :
  name:string -> ?cat:string -> ph:string -> ?bp:string -> ?id:int -> ?s:string -> unit -> head

(** [event_from q h ...] appends exactly what {!event} would for [h]'s
    fields plus these. *)
val event_from :
  seq ->
  head ->
  ?ts:Time.t ->
  ?dur:Time.t ->
  ?pid:int ->
  ?tid:int ->
  ?args:(string * value) list ->
  unit ->
  unit

(** Render the items [f] writes into a fresh run, with no separator. *)
val to_string : (seq -> unit) -> string
