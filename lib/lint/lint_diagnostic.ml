(* A single lint finding, formatted compiler-style so editors and CI can
   jump straight to it: [file:line:col: error [rule-id] message]. *)

type t = { file : string; line : int; col : int; rule : string; message : string }

let make ~file ~line ~col ~rule message = { file; line; col; rule; message }

let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Stdlib.compare a.line b.line with
    | 0 -> (
      match Stdlib.compare a.col b.col with
      | 0 -> String.compare a.rule b.rule
      | c -> c)
    | c -> c)
  | c -> c

let to_string d = Printf.sprintf "%s:%d:%d: error [%s] %s" d.file d.line d.col d.rule d.message

let to_json d =
  let module Te = Reflex_obs.Trace_event in
  let buf = Buffer.create 160 in
  Te.add_object buf
    [ ("file", Te.Str d.file); ("line", Int d.line); ("col", Int d.col); ("rule", Str d.rule);
      ("message", Str d.message) ];
  Buffer.contents buf
