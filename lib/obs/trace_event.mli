(** The one JSON writer: string escaping, values and objects, and the
    Chrome [trace_event] emitter shared by every exporter (request traces,
    flight dumps, the rack rollup, alert instants, lint reports). *)

open Reflex_engine

type value =
  | Int of int
  | Num of float  (** [%g] *)
  | Us of Time.t  (** microseconds, [%.3f] *)
  | Str of string  (** escaped *)
  | Bool of bool
  | Null
  | Obj of (string * value) list
  | Arr of value list

(** [s] as a quoted JSON string: double quote, backslash, newline, tab
    and carriage return get their short escapes, other control
    characters a 4-digit [\u] escape. *)
val quote : string -> string

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

(** Append one trace event.  Keys always come in the order name, cat, ph,
    bp, id, s, ts, dur, pid, tid, args; absent options are omitted;
    [ts]/[dur] render as [%.3f] µs. *)
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

(** Render the items [f] writes into a fresh run, with no separator. *)
val to_string : (seq -> unit) -> string
