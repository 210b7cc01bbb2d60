(* Inline waivers.  A finding is waived by a comment of the form

     (* reflex-lint: allow <rule-id> — <reason> *)

   placed on the offending line or on the line directly above it.  The
   reason is mandatory; a waiver naming an unknown rule-id, or carrying
   no reason, is itself a [lint/bad-waiver] finding — a typo must not
   silently waive nothing.

   Comment extraction is a small hand lexer that understands nested
   comments and skips string literals (so a string containing "(*" does
   not open a comment).  Char literals are not modelled beyond the
   ['"'] case ['\"']-in-strings handles; this is fine for waiver
   scanning, which only needs comment spans, and the AST rules use the
   real compiler parser. *)

type t = { w_start_line : int; w_end_line : int; w_rule : string; w_reason : string }

(* [start_line, end_line+1] — the comment's own lines plus the next. *)
let covers ws ~rule ~line =
  List.exists (fun w -> w.w_rule = rule && line >= w.w_start_line && line <= w.w_end_line + 1) ws

type comment = { c_start_line : int; c_end_line : int; c_text : string }

let extract_comments text =
  let n = String.length text in
  let comments = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let at s off = off + String.length s <= n && String.sub text off (String.length s) = s in
  while !i < n do
    let c = text.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if at "(*" !i then begin
      (* comment: consume with nesting *)
      let start_line = !line in
      let buf = Buffer.create 64 in
      let depth = ref 1 in
      i := !i + 2;
      while !depth > 0 && !i < n do
        if at "(*" !i then begin
          incr depth;
          Buffer.add_string buf "(*";
          i := !i + 2
        end
        else if at "*)" !i then begin
          decr depth;
          if !depth > 0 then Buffer.add_string buf "*)";
          i := !i + 2
        end
        else begin
          if text.[!i] = '\n' then incr line;
          Buffer.add_char buf text.[!i];
          incr i
        end
      done;
      comments :=
        { c_start_line = start_line; c_end_line = !line; c_text = Buffer.contents buf }
        :: !comments
    end
    else if c = '"' then begin
      (* string literal: skip to unescaped closing quote *)
      incr i;
      let fin = ref false in
      while (not !fin) && !i < n do
        (match text.[!i] with
        | '\\' -> i := !i + 1 (* skip escaped char (the incr below adds 1 more) *)
        | '"' -> fin := true
        | '\n' -> incr line
        | _ -> ());
        incr i
      done
    end
    else incr i
  done;
  List.rev !comments

let prefix = "reflex-lint:"

let scan ~file text =
  let waivers = ref [] and diags = ref [] in
  let bad line msg =
    diags := Lint_diagnostic.make ~file ~line ~col:0 ~rule:"lint/bad-waiver" msg :: !diags
  in
  List.iter
    (fun c ->
      let body = String.trim c.c_text in
      if String.length body >= String.length prefix && String.sub body 0 (String.length prefix) = prefix
      then begin
        let rest = String.trim (String.sub body (String.length prefix) (String.length body - String.length prefix)) in
        match Lint_manifest.split_reason rest with
        | None -> bad c.c_start_line "waiver lacks a '— reason' justification"
        | Some (payload, reason) -> (
          match Lint_manifest.words payload with
          | [ "allow"; rule ] ->
            if Lint_rule_ids.is_internal rule then
              bad c.c_start_line (Printf.sprintf "rule %S cannot be waived" rule)
            else if not (Lint_rule_ids.is_known rule) then
              bad c.c_start_line (Printf.sprintf "waiver names unknown rule-id %S" rule)
            else
              waivers :=
                {
                  w_start_line = c.c_start_line;
                  w_end_line = c.c_end_line;
                  w_rule = rule;
                  w_reason = reason;
                }
                :: !waivers
          | _ -> bad c.c_start_line "waiver syntax: (* reflex-lint: allow <rule-id> — <reason> *)")
      end)
    (extract_comments text);
  (List.rev !waivers, List.rev !diags)
