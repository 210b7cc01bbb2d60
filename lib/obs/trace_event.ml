open Reflex_engine

(* The one JSON writer: a string escaper, a value/object renderer and the
   Chrome trace_event emitter every exporter shares.  Report-time only. *)

type value =
  | Int of int
  | Num of float
  | Us of Time.t
  | Str of string
  | Bool of bool
  | Null
  | Obj of (string * value) list
  | Arr of value list

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let quote s =
  let buf = Buffer.create (String.length s + 8) in
  add_string buf s;
  Buffer.contents buf

let rec add_value buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Num f -> Printf.bprintf buf "%g" f
  | Us t -> Printf.bprintf buf "%.3f" (Time.to_float_us t)
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

let next q = if q.started then Buffer.add_string q.buf q.sep else q.started <- true

let raw q s =
  next q;
  Buffer.add_string q.buf s

let obj q fields =
  next q;
  add_object q.buf fields

(* The one key order: name, cat, ph, bp, id, s, ts, dur, pid, tid, args. *)
let event q ~name ?cat ~ph ?bp ?id ?s ?ts ?dur ?pid ?tid ?args () =
  let opt k f = function Some x -> [ (k, f x) ] | None -> [] in
  let str x = Str x and int x = Int x and us x = Us x and nest x = Obj x in
  obj q
    (List.concat
       [
         [ ("name", Str name) ];
         opt "cat" str cat;
         [ ("ph", Str ph) ];
         opt "bp" str bp;
         opt "id" int id;
         opt "s" str s;
         opt "ts" us ts;
         opt "dur" us dur;
         opt "pid" int pid;
         opt "tid" int tid;
         opt "args" nest args;
       ])

let to_string f =
  let buf = Buffer.create 256 in
  f (seq buf ~sep:"");
  Buffer.contents buf
