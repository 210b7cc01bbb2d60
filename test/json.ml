(* Minimal JSON parser shared by the exporter tests: validation plus
   decoding (strings are unescaped, so a round-trip can be compared
   exactly; code points above 255 decode to '?'). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Bad of string

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws () | _ -> ()
  in
  let expect c =
    if peek () <> c then raise (Bad (Printf.sprintf "expected %c at %d" c !pos));
    advance ()
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Bad "unterminated string");
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | '"' -> Buffer.add_char b '"'; advance ()
        | '\\' -> Buffer.add_char b '\\'; advance ()
        | '/' -> Buffer.add_char b '/'; advance ()
        | 'n' -> Buffer.add_char b '\n'; advance ()
        | 't' -> Buffer.add_char b '\t'; advance ()
        | 'r' -> Buffer.add_char b '\r'; advance ()
        | 'b' -> Buffer.add_char b '\b'; advance ()
        | 'f' -> Buffer.add_char b '\012'; advance ()
        | 'u' ->
          advance ();
          let code =
            match int_of_string_opt ("0x" ^ String.sub s !pos (min 4 (n - !pos))) with
            | Some c when !pos + 4 <= n -> c
            | _ -> raise (Bad "bad \\u escape")
          in
          pos := !pos + 4;
          Buffer.add_char b (if code < 256 then Char.chr code else '?')
        | c -> raise (Bad (Printf.sprintf "bad escape \\%c" c)));
        go ()
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let sub = String.sub s start (!pos - start) in
    match float_of_string_opt sub with
    | Some f -> f
    | None -> raise (Bad ("bad number: " ^ sub))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> Str (parse_string ())
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then (advance (); Obj [])
      else
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); members ((k, v) :: acc)
          | '}' -> advance (); Obj (List.rev ((k, v) :: acc))
          | c -> raise (Bad (Printf.sprintf "bad object char %c" c))
        in
        members []
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then (advance (); List [])
      else
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' -> advance (); items (v :: acc)
          | ']' -> advance (); List (List.rev (v :: acc))
          | c -> raise (Bad (Printf.sprintf "bad array char %c" c))
        in
        items []
    | 't' -> pos := !pos + 4; Bool true
    | 'f' -> pos := !pos + 5; Bool false
    | 'n' -> pos := !pos + 4; Null
    | _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then raise (Bad (Printf.sprintf "trailing garbage at %d" !pos));
  v

let mem k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
