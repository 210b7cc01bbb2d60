open Reflex_engine

(* The one JSON writer: a string escaper, a value/object renderer and the
   Chrome trace_event emitter every exporter shares.  Report-time only.
   Everything writes straight into the caller's buffer: no per-event
   field list, no per-field [value], no float round trip for times. *)

type value =
  | Int of int
  | Num of float
  | Us of Time.t
  | Str of string
  | Bool of bool
  | Null
  | Obj of (string * value) list
  | Arr of value list

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Length of the prefix of [s] that needs no escaping. *)
let clean_prefix s =
  let n = String.length s in
  let rec go i = if i < n && not (needs_escape s.[i]) then go (i + 1) else i in
  go 0

(* The clean prefix (for most strings, all of it) goes in as one blit;
   the rest is escaped char by char. *)
let add_string buf s =
  Buffer.add_char buf '"';
  let clean = clean_prefix s in
  Buffer.add_substring buf s 0 clean;
  for i = clean to String.length s - 1 do
    match s.[i] with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\t' -> Buffer.add_string buf "\\t"
    | '\r' -> Buffer.add_string buf "\\r"
    | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
    | c -> Buffer.add_char buf c
  done;
  Buffer.add_char buf '"'

let quote s =
  let buf = Buffer.create (String.length s + 8) in
  add_string buf s;
  Buffer.contents buf

(* Decimal digits of [n <= 0], without its sign.  Working on the
   non-positive side keeps [min_int] in range. *)
let rec add_neg_digits buf n =
  if n <= -10 then add_neg_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf i
  end
  else add_neg_digits buf (-i)

(* Exact integer µs: [ns / 1000] "." three digits of [ns mod 1000].  The
   float form [%.3f] of [ns /. 1e3] prints the same digits while the
   quotient's rounding error stays under half a thousandth, i.e. for
   every |ns| < 2^50 (about 13 simulated days). *)
let add_us buf t =
  let ns = Int64.to_int t in
  let n =
    if ns < 0 then begin
      Buffer.add_char buf '-';
      ns
    end
    else -ns
  in
  add_neg_digits buf (n / 1000);
  Buffer.add_char buf '.';
  let frac = -(n mod 1000) in
  Buffer.add_char buf (Char.unsafe_chr (48 + (frac / 100)));
  Buffer.add_char buf (Char.unsafe_chr (48 + ((frac / 10) mod 10)));
  Buffer.add_char buf (Char.unsafe_chr (48 + (frac mod 10)))

let us t =
  let buf = Buffer.create 24 in
  add_us buf t;
  Buffer.contents buf

let rec add_value buf = function
  | Int i -> add_int buf i
  | Num f -> Printf.bprintf buf "%g" f
  | Us t -> add_us buf t
  | Str s -> add_string buf s
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Null -> Buffer.add_string buf "null"
  | Obj fields -> add_object buf fields
  | Arr vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        add_value buf v)
      vs;
    Buffer.add_char buf ']'

and add_object buf fields =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      add_string buf k;
      Buffer.add_char buf ':';
      add_value buf v)
    fields;
  Buffer.add_char buf '}'

(* ---------------- trace_event sequences ---------------- *)

type seq = { buf : Buffer.t; sep : string; mutable started : bool }

let seq buf ~sep = { buf; sep; started = false }

let item q =
  if q.started then Buffer.add_string q.buf q.sep else q.started <- true;
  q.buf

let raw q s = Buffer.add_string (item q) s
let obj q fields = add_object (item q) fields

(* [key] is a pre-rendered [,"k":] separator-and-key literal. *)
let opt_str buf key = function
  | Some v ->
    Buffer.add_string buf key;
    add_string buf v
  | None -> ()

let opt_int buf key = function
  | Some v ->
    Buffer.add_string buf key;
    add_int buf v
  | None -> ()

let opt_us buf key = function
  | Some v ->
    Buffer.add_string buf key;
    add_us buf v
  | None -> ()

(* The one key order: name, cat, ph, bp, id, s, ts, dur, pid, tid, args.
   An event is its head (name through s, left open) then its tail (ts
   onward, closed). *)
let add_head buf ~name ?cat ~ph ?bp ?id ?s () =
  Buffer.add_string buf "{\"name\":";
  add_string buf name;
  opt_str buf ",\"cat\":" cat;
  Buffer.add_string buf ",\"ph\":";
  add_string buf ph;
  opt_str buf ",\"bp\":" bp;
  opt_int buf ",\"id\":" id;
  opt_str buf ",\"s\":" s

let add_tail buf ?ts ?dur ?pid ?tid ?args () =
  opt_us buf ",\"ts\":" ts;
  opt_us buf ",\"dur\":" dur;
  opt_int buf ",\"pid\":" pid;
  opt_int buf ",\"tid\":" tid;
  (match args with
  | Some fields ->
    Buffer.add_string buf ",\"args\":";
    add_object buf fields
  | None -> ());
  Buffer.add_char buf '}'

let event q ~name ?cat ~ph ?bp ?id ?s ?ts ?dur ?pid ?tid ?args () =
  let buf = item q in
  add_head buf ~name ?cat ~ph ?bp ?id ?s ();
  add_tail buf ?ts ?dur ?pid ?tid ?args ()

type head = string

let head ~name ?cat ~ph ?bp ?id ?s () =
  let buf = Buffer.create 64 in
  add_head buf ~name ?cat ~ph ?bp ?id ?s ();
  Buffer.contents buf

let event_from q head ?ts ?dur ?pid ?tid ?args () =
  let buf = item q in
  Buffer.add_string buf head;
  add_tail buf ?ts ?dur ?pid ?tid ?args ()

let to_string f =
  let buf = Buffer.create 256 in
  f (seq buf ~sep:"");
  Buffer.contents buf
