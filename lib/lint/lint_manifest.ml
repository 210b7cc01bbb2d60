(* The checked-in `lint.manifest` carries directory- and symbol-scoped
   policy: which rules are waived wholesale under a path prefix, which
   module-toplevel mutable bindings are registered as domain-safe, and
   which `.ml` files are exempt from the matching-`.mli` rule.

   Syntax (one entry per line, `#` comments, blank lines ignored):

     allow <rule-id> <path-prefix> — <reason>
     domain_safe <file> <ident> — <reason>
     iface_exempt <file> — <reason>

   Every entry must carry a reason after an em-dash (or `--`): policy
   without a written justification is itself a lint error. *)

type t = {
  allows : (string * string * string) list; (* rule-id, path prefix, reason *)
  domain_safe : (string * string * string) list; (* file, ident, reason *)
  iface_exempt : (string * string) list; (* file, reason *)
}

let empty = { allows = []; domain_safe = []; iface_exempt = [] }

(* Split "payload — reason" (accepting the ASCII fallback "--").  Returns
   None when no separator or the reason is empty. *)
let split_reason line =
  let try_sep sep =
    let slen = String.length sep in
    let rec find i =
      if i + slen > String.length line then None
      else if String.sub line i slen = sep then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> None
    | Some i ->
      let payload = String.trim (String.sub line 0 i) in
      let reason = String.trim (String.sub line (i + slen) (String.length line - i - slen)) in
      if reason = "" then None else Some (payload, reason)
  in
  match try_sep "\xe2\x80\x94" (* U+2014 em-dash *) with
  | Some r -> Some r
  | None -> ( match try_sep "--" with Some r -> Some r | None -> None)

let words s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let parse ~file text =
  let diags = ref [] in
  let m = ref empty in
  let error line msg =
    diags := Lint_diagnostic.make ~file ~line ~col:0 ~rule:"lint/manifest" msg :: !diags
  in
  let parse_line lineno line =
    let line = String.trim line in
    if line = "" || line.[0] = '#' then ()
    else
      match split_reason line with
      | None -> error lineno "manifest entry lacks a '— reason' justification"
      | Some (payload, reason) -> (
        match words payload with
        | [ "allow"; rule; prefix ] ->
          if not (Lint_rule_ids.is_known rule) then
            error lineno (Printf.sprintf "allow names unknown rule-id %S" rule)
          else m := { !m with allows = (rule, prefix, reason) :: !m.allows }
        | [ "domain_safe"; filep; ident ] ->
          m := { !m with domain_safe = (filep, ident, reason) :: !m.domain_safe }
        | [ "iface_exempt"; filep ] ->
          m := { !m with iface_exempt = (filep, reason) :: !m.iface_exempt }
        | directive :: _ -> error lineno (Printf.sprintf "unknown manifest directive %S" directive)
        | [] -> error lineno "empty manifest entry")
  in
  List.iteri (fun i line -> parse_line (i + 1) line) (String.split_on_char '\n' text);
  (!m, List.rev !diags)

let load path =
  if not (Sys.file_exists path) then
    ( empty,
      [
        Lint_diagnostic.make ~file:path ~line:1 ~col:0 ~rule:"lint/manifest"
          (Printf.sprintf "manifest %s not found" path);
      ] )
  else
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let text = really_input_string ic n in
    close_in ic;
    parse ~file:path text

let is_prefix ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let allowed t ~rule ~path =
  List.exists (fun (r, prefix, _) -> r = rule && is_prefix ~prefix path) t.allows

let domain_safe_idents t ~path =
  List.filter_map (fun (f, id, _) -> if f = path then Some id else None) t.domain_safe

let iface_exempted t ~path = List.exists (fun (f, _) -> f = path) t.iface_exempt
