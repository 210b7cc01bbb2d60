open Reflex_engine

(* Declarative alerting rules over the windowed Tsdb.

   Each rule owns a check function evaluated once per closed window and
   one bit of state:

      Ok --violated--> Firing   (emits Fired)
      Firing --clear--> Ok      (emits Resolved)

   Rules are evaluated in NAME order every step and events are appended
   in that order, so the alert timeline of a same-seed run is
   byte-identical whether the experiment ran serial or under
   Runner --jobs: nothing in here depends on wall clock, hashing order
   or domain count.

   The flagship rule shape is the SRE multi-window multi-burn-rate
   condition (e.g. "burn >= 14x over the short window AND >= 6x over
   the long window"), built from Budget.burn_rate_of over windowed
   good/bad counts; see {!burn_rule}. *)

type severity = Info | Ticket | Page

let severity_label = function Info -> "info" | Ticket -> "ticket" | Page -> "page"

type rule = {
  r_name : string;
  r_severity : severity;
  r_check : Tsdb.t -> Tsdb.window -> string option;
}

let rule ?(severity = Ticket) ~name check =
  { r_name = name; r_severity = severity; r_check = check }

(* Multi-window multi-burn-rate rule: fire when the burn rate over the
   newest [short] windows and the newest [long] windows both exceed
   their factors.  The long window keeps the rule honest (sustained
   burn), the short window keeps its reset time low. *)
let burn_rule ?severity ~name ~target ~good ~bad ~short ~long () =
  let k_short, f_short = short and k_long, f_long = long in
  if k_short < 1 || k_long < k_short then invalid_arg "Alerts.burn_rule: bad window sizes";
  let burn_over tsdb k =
    Budget.burn_rate_of ~target
      ~good:(Tsdb.sum_last tsdb ~k good)
      ~bad:(Tsdb.sum_last tsdb ~k bad)
  in
  rule ?severity ~name (fun tsdb _w ->
      let b_short = burn_over tsdb k_short and b_long = burn_over tsdb k_long in
      if b_short >= f_short && b_long >= f_long then
        Some
          (Printf.sprintf "burn %.1fx/%dw (>=%.0fx) and %.1fx/%dw (>=%.0fx)" b_short
             k_short f_short b_long k_long f_long)
      else None)

type kind = Fired | Resolved

let kind_label = function Fired -> "FIRED" | Resolved -> "RESOLVED"

type event = {
  e_time : Time.t;
  e_rule : string;
  e_severity : severity;
  e_kind : kind;
  e_detail : string;
}

type rstate = { rule : rule; mutable firing : bool }

type t = {
  annotate : Time.t -> string option;
  mutable rules : rstate list; (* name-sorted *)
  mutable events_rev : event list;
  mutable fired_total : int;
}

let create ?(annotate = fun _ -> None) () =
  { annotate; rules = []; events_rev = []; fired_total = 0 }

let add t r =
  if List.exists (fun rs -> rs.rule.r_name = r.r_name) t.rules then
    invalid_arg ("Alerts.add: duplicate rule " ^ r.r_name);
  let rs = { rule = r; firing = false } in
  t.rules <-
    List.sort (fun a b -> compare a.rule.r_name b.rule.r_name) (rs :: t.rules)

let emit t ~now rs kind detail =
  let detail =
    match (kind, t.annotate now) with
    | Fired, Some extra -> detail ^ "; " ^ extra
    | _ -> detail
  in
  let e =
    {
      e_time = now;
      e_rule = rs.rule.r_name;
      e_severity = rs.rule.r_severity;
      e_kind = kind;
      e_detail = detail;
    }
  in
  t.events_rev <- e :: t.events_rev;
  if kind = Fired then t.fired_total <- t.fired_total + 1;
  e

(* Evaluate every rule against the freshly closed window.  Returns the
   events emitted by this step, in rule-name order. *)
let step t tsdb ~now =
  match Tsdb.last tsdb with
  | None -> []
  | Some w ->
    List.filter_map
      (fun rs ->
        match (rs.firing, rs.rule.r_check tsdb w) with
        | false, None | true, Some _ -> None
        | false, Some detail ->
          rs.firing <- true;
          Some (emit t ~now rs Fired detail)
        | true, None ->
          rs.firing <- false;
          Some (emit t ~now rs Resolved "condition clear"))
      t.rules

let firing t =
  List.filter_map
    (fun rs -> if rs.firing then Some rs.rule.r_name else None)
    t.rules

let events t = List.rev t.events_rev
let event_count t = List.length t.events_rev
let fired_total t = t.fired_total

let pp_event ppf e =
  Fmt.pf ppf "%10.3fms %-8s %-6s %-28s %s" (Time.to_float_ms e.e_time)
    (kind_label e.e_kind) (severity_label e.e_severity) e.e_rule e.e_detail

let report t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "== alerts (%d events, %d fired, firing now: %s) ==\n" (event_count t)
       t.fired_total
       (match firing t with [] -> "none" | l -> String.concat "," l));
  List.iter
    (fun e -> Buffer.add_string buf (Fmt.str "%a\n" pp_event e))
    (events t);
  Buffer.contents buf
