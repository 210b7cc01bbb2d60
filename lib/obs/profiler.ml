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

(* Open scopes form a stack: a scope's words leave the enclosing scope
   when it closes, so every bucket holds self words.  Word counts are
   exact ints (below 2^53), kept in int arrays so no store boxes. *)
let max_depth = 16

type t = {
  on : bool;
  minor : int array; (* accumulated self words per subsystem *)
  n_calls : int array;
  open_w0 : int array; (* per open scope: the count at [enter] *)
  open_nested : int array; (* per open scope: words of its closed children *)
  mutable depth : int;
}

let make ~enabled =
  let n = Subsystem.count in
  {
    on = enabled;
    minor = Array.make n 0;
    n_calls = Array.make n 0;
    open_w0 = Array.make max_depth 0;
    open_nested = Array.make max_depth 0;
    depth = 0;
  }

let disabled = make ~enabled:false
let create () = make ~enabled:true
let enabled t = t.on [@@inline]
let words () = int_of_float (Gc.minor_words ()) [@@inline]

let enter t _sub =
  if t.on then begin
    let d = t.depth in
    t.open_w0.(d) <- words ();
    t.open_nested.(d) <- 0;
    t.depth <- d + 1
  end
[@@inline]

let leave t sub =
  if t.on then begin
    let d = t.depth - 1 in
    t.depth <- d;
    let total = words () - t.open_w0.(d) in
    let i = Subsystem.to_int sub in
    t.minor.(i) <- t.minor.(i) + total - t.open_nested.(d);
    t.n_calls.(i) <- t.n_calls.(i) + 1;
    if d > 0 then t.open_nested.(d - 1) <- t.open_nested.(d - 1) + total
  end
[@@inline]

let minor_words t sub = float_of_int t.minor.(Subsystem.to_int sub)
let calls t sub = t.n_calls.(Subsystem.to_int sub)

(* Buckets hold self words, so they sum to the words inside the
   outermost scopes, and shares normalise over that sum. *)
let shares t =
  let total = List.fold_left (fun acc sub -> acc +. minor_words t sub) 0.0 Subsystem.all in
  let total = if total > 0.0 then total else 1.0 in
  List.map
    (fun sub ->
      let w = minor_words t sub in
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
