(* A single lint finding, formatted compiler-style so editors and CI can
   jump straight to it: [file:line:col: error [rule-id] message]. *)

type step = { st_name : string; st_file : string; st_line : int }

type t = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
  (* Interprocedural findings carry the propagation path (seed/sink
     first, terminal site last); empty for per-file findings.  The chain
     is what lets a reviewer name the edge to waive and what
     [--explain <rule-id>] expands with per-hop locations. *)
  chain : step list;
}

let make ?(chain = []) ~file ~line ~col ~rule message = { file; line; col; rule; message; chain }

let step ~name ~file ~line = { st_name = name; st_file = file; st_line = line }

(* "via a -> b -> c" — the compact form embedded in messages. *)
let chain_to_string chain = String.concat " -> " (List.map (fun s -> s.st_name) chain)

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

(* The chain is emitted only when present so per-file findings keep the
   PR 5 rendering byte-for-byte. *)
let to_json d =
  let module Te = Reflex_obs.Trace_event in
  let step s = Te.Obj [ ("fn", Str s.st_name); ("file", Str s.st_file); ("line", Int s.st_line) ] in
  let buf = Buffer.create 160 in
  Te.add_object buf
    ([ ("file", Te.Str d.file); ("line", Int d.line); ("col", Int d.col); ("rule", Str d.rule);
       ("message", Str d.message) ]
    @ if d.chain = [] then [] else [ ("chain", Arr (List.map step d.chain)) ]);
  Buffer.contents buf
