(* Host-cost attribution.  The monotonic ns clock and Gc.minor_words are
   read only inside enter/leave scopes on an enabled instance; the numbers
   never touch simulation state (see the .mli contract and the det/clock
   waiver for lib/obs/ in lint.manifest). *)

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
  wall : int array; (* accumulated ns per subsystem *)
  minor : float array; (* accumulated minor words per subsystem *)
  n_calls : int array;
  t0 : int array; (* open-scope start stamps, ns *)
  w0 : float array;
}

let make ~enabled =
  let n = Subsystem.count in
  {
    on = enabled;
    wall = Array.make n 0;
    minor = Array.make n 0.0;
    n_calls = Array.make n 0;
    t0 = Array.make n 0;
    w0 = Array.make n 0.0;
  }

let now_ns () = Int64.to_int (Monotonic_clock.now ()) [@@inline]

let disabled = make ~enabled:false
let create () = make ~enabled:true
let enabled t = t.on [@@inline]

let enter t sub =
  if t.on then begin
    let i = Subsystem.to_int sub in
    t.t0.(i) <- now_ns ();
    t.w0.(i) <- Gc.minor_words ()
  end
[@@inline]

let leave t sub =
  if t.on then begin
    let i = Subsystem.to_int sub in
    t.wall.(i) <- t.wall.(i) + (now_ns () - t.t0.(i));
    t.minor.(i) <- t.minor.(i) +. (Gc.minor_words () -. t.w0.(i));
    t.n_calls.(i) <- t.n_calls.(i) + 1
  end
[@@inline]

let wall_s t sub = float_of_int t.wall.(Subsystem.to_int sub) *. 1e-9
let minor_words t sub = t.minor.(Subsystem.to_int sub)
let calls t sub = t.n_calls.(Subsystem.to_int sub)

(* The Engine scope (wrapped around Sim.run by the harness) encloses every
   other scope, so its self time is what remains once the nested buckets
   are subtracted.  When no Engine scope was taken, shares normalise over
   the sum of the independent buckets instead. *)
let shares t =
  let engine = wall_s t Subsystem.Engine in
  let nested =
    List.fold_left
      (fun acc sub -> if sub = Subsystem.Engine then acc else acc +. wall_s t sub)
      0.0 Subsystem.all
  in
  let engine_self = if engine > 0.0 then Float.max 0.0 (engine -. nested) else 0.0 in
  let total = if engine > nested then engine else nested in
  let total = if total > 0.0 then total else 1.0 in
  List.map
    (fun sub ->
      let i = Subsystem.to_int sub in
      let w = if sub = Subsystem.Engine then engine_self else wall_s t sub in
      (Subsystem.name sub, w, w /. total, t.minor.(i)))
    Subsystem.all

let report t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "== cost profile (host wall time; engine = self) ==\n";
  Buffer.add_string buf
    (Printf.sprintf "%-10s %12s %8s %14s %10s\n" "subsystem" "wall_ms" "share" "minor_words"
       "scopes");
  List.iter
    (fun (name, w, share, minor) ->
      let sub = List.find (fun s -> Subsystem.name s = name) Subsystem.all in
      Buffer.add_string buf
        (Printf.sprintf "%-10s %12.3f %7.1f%% %14.0f %10d\n" name (w *. 1e3) (share *. 100.0)
           minor (calls t sub)))
    (shares t);
  Buffer.contents buf
