(* Host-cost attribution in minor words.  Gc.minor_words is read only
   inside enter/leave scopes on an enabled instance; the counts never
   touch simulation state (see the .mli contract). *)

module Subsystem = struct
  type t = Engine | Qos | Flash | Net | Telemetry | Monitor | Other

  let count = 7

  let to_int = function
    | Engine -> 0
    | Qos -> 1
    | Flash -> 2
    | Net -> 3
    | Telemetry -> 4
    | Monitor -> 5
    | Other -> 6

  let name = function
    | Engine -> "engine"
    | Qos -> "qos"
    | Flash -> "flash"
    | Net -> "net"
    | Telemetry -> "telemetry"
    | Monitor -> "monitor"
    | Other -> "other"

  let all = [ Engine; Qos; Flash; Net; Telemetry; Monitor; Other ]
end

type t = {
  on : bool;
  minor : float array; (* accumulated minor words per subsystem *)
  n_calls : int array;
  w0 : float array; (* open-scope start counts *)
}

let make ~enabled =
  let n = Subsystem.count in
  { on = enabled; minor = Array.make n 0.0; n_calls = Array.make n 0; w0 = Array.make n 0.0 }

let disabled = make ~enabled:false
let create () = make ~enabled:true
let enabled t = t.on [@@inline]

let enter t sub = if t.on then t.w0.(Subsystem.to_int sub) <- Gc.minor_words () [@@inline]

let leave t sub =
  if t.on then begin
    let i = Subsystem.to_int sub in
    t.minor.(i) <- t.minor.(i) +. (Gc.minor_words () -. t.w0.(i));
    t.n_calls.(i) <- t.n_calls.(i) + 1
  end
[@@inline]

let minor_words t sub = t.minor.(Subsystem.to_int sub)
let calls t sub = t.n_calls.(Subsystem.to_int sub)

(* The Engine scope (wrapped around Sim.run by the harness) encloses every
   other scope, so its self words are what remains once the nested buckets
   are subtracted.  When no Engine scope was taken, shares normalise over
   the sum of the independent buckets instead. *)
let shares t =
  let engine = minor_words t Subsystem.Engine in
  let nested =
    List.fold_left
      (fun acc sub -> if sub = Subsystem.Engine then acc else acc +. minor_words t sub)
      0.0 Subsystem.all
  in
  let engine_self = if engine > 0.0 then Float.max 0.0 (engine -. nested) else 0.0 in
  let total = if engine > nested then engine else nested in
  let total = if total > 0.0 then total else 1.0 in
  List.map
    (fun sub ->
      let w = if sub = Subsystem.Engine then engine_self else minor_words t sub in
      (Subsystem.name sub, w, w /. total))
    Subsystem.all

let report t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "== cost profile (minor words; engine = self) ==\n";
  Buffer.add_string buf
    (Printf.sprintf "%-10s %14s %8s %10s\n" "subsystem" "minor_words" "share" "scopes");
  List.iter2
    (fun (name, w, share) sub ->
      Buffer.add_string buf
        (Printf.sprintf "%-10s %14.0f %7.1f%% %10d\n" name w (share *. 100.0) (calls t sub)))
    (shares t) Subsystem.all;
  Buffer.contents buf
