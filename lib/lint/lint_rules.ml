(* The four rule families, implemented as syntactic passes over the
   compiler-libs Parsetree.  Every rule is a sound-for-our-idioms
   approximation; the precise approximation limits are documented in
   DESIGN.md §10.  All rules run on every scanned file — *policy* about
   where a rule applies lives in lint.manifest `allow` prefixes, not in
   the rule code.

   Family overview:
     det/random        any use of the ambient Stdlib [Random] module
     det/clock         wall-clock reads ([Unix.gettimeofday] & friends)
     det/marshal       [Marshal] (output depends on sharing/arch)
     det/hashtbl-order [Hashtbl.iter]/[fold]/[to_seq] in a toplevel
                       binding that contains no sorting call
     dom/toplevel-state  module-toplevel mutable allocations (shared
                       across Runner.map domains)
     guard/telemetry   effectful Telemetry/Monitor record calls not
                       under an enabled-guard conditional, also when
                       made through a file-local module alias
     iface/mli         .ml without matching .mli (driver-level)        *)

open Parsetree

(* ---------------- longident helpers ---------------- *)

let rec lid_parts = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> lid_parts l @ [ s ]
  | Longident.Lapply (a, _) -> lid_parts a

let lid_head l = match lid_parts l with [] -> "" | h :: _ -> h
let lid_last l = match List.rev (lid_parts l) with [] -> "" | h :: _ -> h
let lid_string l = String.concat "." (lid_parts l)

let pos_of (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

let diag ~file ~loc ~rule msg =
  let line, col = pos_of loc in
  Lint_diagnostic.make ~file ~line ~col ~rule msg

(* Iterate every expression in a structure. *)
let iter_exprs str f =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          f e;
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str

(* Iterate toplevel value bindings (including inside nested [module X =
   struct .. end]); [f ~name vb] gets the bound variable name when the
   pattern is a simple var. *)
let rec iter_toplevel_bindings str f =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            let rec pat_name p =
              match p.ppat_desc with
              | Ppat_var v -> Some v.Location.txt
              | Ppat_constraint (p, _) -> pat_name p
              | _ -> None
            in
            f ~name:(pat_name vb.pvb_pat) vb)
          vbs
      | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } ->
        iter_toplevel_bindings s f
      | Pstr_recmodule mbs ->
        List.iter
          (fun mb ->
            match mb.pmb_expr.pmod_desc with
            | Pmod_structure s -> iter_toplevel_bindings s f
            | _ -> ())
          mbs
      | _ -> ())
    str

(* Iterate every expression under one expression. *)
let iter_sub_exprs expr f =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          f e;
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it expr

(* ---------------- determinism ---------------- *)

let clock_paths =
  [
    "Unix.gettimeofday";
    "Unix.time";
    "Unix.localtime";
    "Unix.gmtime";
    "Unix.mktime";
    "Sys.time";
    "Monotonic_clock.now";
  ]

let check_idents ~file str =
  let out = ref [] in
  iter_exprs str (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt = lid; loc } ->
        let path = lid_string lid in
        if lid_head lid = "Random" then
          out :=
            diag ~file ~loc ~rule:"det/random"
              (Printf.sprintf
                 "%s uses ambient Random state; route randomness through a seeded Engine.Prng" path)
            :: !out;
        if List.mem path clock_paths then
          out :=
            diag ~file ~loc ~rule:"det/clock"
              (Printf.sprintf "%s reads the wall clock; simulated time must come from Sim.now" path)
            :: !out;
        if lid_head lid = "Marshal" then
          out :=
            diag ~file ~loc ~rule:"det/marshal"
              (Printf.sprintf "%s output is not byte-stable; use the hand-rolled JSON/text codecs"
                 path)
            :: !out
      | _ -> ());
  !out

let is_hashtbl_iter lid =
  lid_head lid = "Hashtbl"
  && List.mem (lid_last lid) [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

let is_sort_name s =
  let has_sub sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m <= n && go 0
  in
  has_sub "sort"

let check_hashtbl_order ~file str =
  let out = ref [] in
  iter_toplevel_bindings str (fun ~name:_ vb ->
      let iters = ref [] and sorted = ref false in
      iter_sub_exprs vb.pvb_expr (fun e ->
          match e.pexp_desc with
          | Pexp_ident { txt = lid; loc } ->
            if is_hashtbl_iter lid then iters := (lid_string lid, loc) :: !iters
            else if is_sort_name (lid_last lid) then sorted := true
          | _ -> ());
      if not !sorted then
        List.iter
          (fun (path, loc) ->
            out :=
              diag ~file ~loc ~rule:"det/hashtbl-order"
                (Printf.sprintf
                   "%s iterates in unspecified order and this binding never sorts; sort the \
                    keys/result (or waive if genuinely order-insensitive)"
                   path)
              :: !out)
          (List.rev !iters));
  !out

(* ---------------- domain-safety ---------------- *)

let mutable_modules = [ "Hashtbl"; "Queue"; "Stack"; "Buffer"; "Bytes"; "Weak"; "Array"; "Dynarray" ]

let mutable_ctors =
  [ "create"; "make"; "init"; "copy"; "of_list"; "of_seq"; "of_array"; "append"; "concat";
    "create_float"; "make_matrix"; "make_float" ]

let mutable_alloc_path lid =
  match lid_parts lid with
  | [ "ref" ] -> Some "ref"
  | parts -> (
    let head = match parts with h :: _ -> h | [] -> "" in
    let last = match List.rev parts with l :: _ -> l | [] -> "" in
    if List.mem head mutable_modules && List.mem last mutable_ctors then Some (lid_string lid)
      (* Any [X.create ...] call builds a stateful object at module
         initialisation time (Sim.create, Telemetry.create, ...). *)
    else if last = "create" then Some (lid_string lid)
    else None)

let check_toplevel_state ~file ~(manifest : Lint_manifest.t) str =
  let safe = Lint_manifest.domain_safe_idents manifest ~path:file in
  let out = ref [] in
  iter_toplevel_bindings str (fun ~name vb ->
      let is_function e =
        match e.pexp_desc with
        | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
        | _ -> false
      in
      let registered = match name with Some n -> List.mem n safe | None -> false in
      if (not (is_function vb.pvb_expr)) && not registered then begin
        (* Scan the init-time-evaluated part of the RHS: descend
           everything except function bodies (those run per call, not at
           module init). *)
        let rec scan e =
          match e.pexp_desc with
          | Pexp_fun _ | Pexp_function _ -> ()
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt = lid; loc }; _ }, args) ->
            (match mutable_alloc_path lid with
            | Some path ->
              let who = match name with Some n -> n | None -> "_" in
              out :=
                diag ~file ~loc ~rule:"dom/toplevel-state"
                  (Printf.sprintf
                     "toplevel binding %S allocates mutable state via %s shared across Runner \
                      domains; register it in lint.manifest [domain_safe] with a justification \
                      or move it into a per-instance record"
                     who path)
                :: !out
            | None -> ());
            List.iter (fun (_, a) -> scan a) args
          | Pexp_array (_ :: _) ->
            let who = match name with Some n -> n | None -> "_" in
            out :=
              diag ~file ~loc:e.pexp_loc ~rule:"dom/toplevel-state"
                (Printf.sprintf "toplevel binding %S allocates a mutable array literal" who)
              :: !out
          | _ ->
            (* generic recursion over immediate children *)
            let it =
              {
                Ast_iterator.default_iterator with
                expr = (fun _ child -> if child != e then scan child);
              }
            in
            Ast_iterator.default_iterator.expr it e
        in
        scan vb.pvb_expr
      end);
  !out

(* ---------------- zero-overhead guards ---------------- *)

(* Keyed on the function name and the module right before it, so a
   library-qualified path ([Reflex_telemetry.Telemetry.incr]) matches
   like the bare one. *)
let effectful_telemetry_path parts =
  match List.rev parts with
  | ("span" | "incr" | "add" | "record_tenant_latency" | "fault_mark" | "sample") :: "Telemetry" :: _
    ->
    true
  | "tick" :: "Monitor" :: _ -> true
  | _ -> false

(* The file's module aliases ([module T = Telemetry], [module M =
   Reflex_monitor.Monitor]) as (name, target path), wherever they sit in
   the file.  Aliases made in other files are not followed. *)
let module_aliases str =
  let out = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      module_binding =
        (fun self mb ->
          (match (mb.pmb_name.Location.txt, mb.pmb_expr.pmod_desc) with
          | Some name, Pmod_ident { txt = lid; _ } -> out := (name, lid_parts lid) :: !out
          | _ -> ());
          Ast_iterator.default_iterator.module_binding self mb);
    }
  in
  it.structure it str;
  !out

(* Expand a path's head through the file's aliases; the fuel bounds an
   alias cycle ([module A = B] and [module B = A]). *)
let rec expand_aliases aliases ~fuel parts =
  match parts with
  | head :: tl when fuel > 0 -> (
    match List.assoc_opt head aliases with
    | Some target -> expand_aliases aliases ~fuel:(fuel - 1) (target @ tl)
    | None -> parts)
  | _ -> parts

let is_guard_name s =
  s = "enabled" || s = "armed"
  || (String.length s > 3 && String.sub s (String.length s - 3) 3 = "_on")

let is_guard_expr e =
  let found = ref false in
  iter_sub_exprs e (fun x ->
      match x.pexp_desc with
      | Pexp_ident { txt = lid; _ } -> if is_guard_name (lid_last lid) then found := true
      | Pexp_field (_, { txt = lid; _ }) -> if is_guard_name (lid_last lid) then found := true
      | _ -> ());
  !found

let check_guards ~file str =
  let aliases = module_aliases str in
  let effectful lid = effectful_telemetry_path (expand_aliases aliases ~fuel:4 (lid_parts lid)) in
  let out = ref [] in
  let guarded = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          match e.pexp_desc with
          | Pexp_ifthenelse (c, t, eo) ->
            let saved = !guarded in
            self.expr self c;
            if is_guard_expr c then guarded := true;
            self.expr self t;
            Option.iter (self.expr self) eo;
            guarded := saved
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt = lid; loc }; _ }, _) ->
            if effectful lid && not !guarded then
              out :=
                diag ~file ~loc ~rule:"guard/telemetry"
                  (Printf.sprintf
                     "effectful %s call outside an enabled-guard conditional; wrap it in [if \
                      tel_on then ...] so the disabled path stays allocation-free"
                     (lid_string lid))
                :: !out;
            Ast_iterator.default_iterator.expr self e
          | _ -> Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str;
  !out

(* ---------------- interface hygiene (driver supplies has_mli) ------- *)

let check_iface ~(manifest : Lint_manifest.t) ~rel ~has_mli =
  if has_mli || Lint_manifest.iface_exempted manifest ~path:rel then []
  else
    [
      Lint_diagnostic.make ~file:rel ~line:1 ~col:0 ~rule:"iface/mli"
        (Printf.sprintf
           "%s has no matching .mli; write one (or add an iface_exempt manifest entry for \
            re-export umbrella modules)"
           rel);
    ]

(* ---------------- entry point ---------------- *)

let check ~(manifest : Lint_manifest.t) (src : Lint_source.t) =
  match src.Lint_source.ast with
  | None -> []
  | Some str ->
    let file = src.Lint_source.rel in
    check_idents ~file str
    @ check_hashtbl_order ~file str
    @ check_toplevel_state ~file ~manifest str
    @ check_guards ~file str
