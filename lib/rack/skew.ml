open Reflex_engine
module Detect = Reflex_monitor.Detect

type t = {
  ratio : Detect.Ewma.t;  (* smoothed max/mean depth ratio *)
  cooldown : Time.t;
  mutable last_fire : Time.t option;
  mutable fires : int;
}

(* Firing needs the hottest server [threshold] sigmas above the rack
   mean and a smoothed max/mean ratio of at least [min_ratio]. *)
let threshold = 1.0
let min_ratio = 2.0

let create ?(cooldown = Time.ms 2) () =
  {
    ratio = Detect.Ewma.create ();
    cooldown;
    last_fire = None;
    fires = 0;
  }

let fires t = t.fires
let imbalance t = if Detect.Ewma.n t.ratio = 0 then 1.0 else Detect.Ewma.mean t.ratio

let observe t ~now ~depths =
  let n = Array.length depths in
  if n < 2 then None
  else begin
    let total = ref 0 and hot = ref 0 in
    for i = 0 to n - 1 do
      total := !total + depths.(i);
      if depths.(i) > depths.(!hot) then hot := i
    done;
    let mean = float_of_int !total /. float_of_int n in
    let var = ref 0.0 in
    for i = 0 to n - 1 do
      let d = float_of_int depths.(i) -. mean in
      var := !var +. (d *. d)
    done;
    (* Spread floored at one request: an idle rack (all depths ~0) must
       not turn a single queued request into an infinite z-score. *)
    let sigma = Float.max 1.0 (sqrt (!var /. float_of_int n)) in
    let cross_z = (float_of_int depths.(!hot) -. mean) /. sigma in
    let ratio = if mean <= 0.0 then 1.0 else float_of_int depths.(!hot) /. mean in
    ignore (Detect.Ewma.observe t.ratio ratio);
    let smoothed = Detect.Ewma.mean t.ratio in
    let cooled =
      match t.last_fire with
      | None -> true
      | Some last -> Time.(now >= Time.add last t.cooldown)
    in
    if
      Detect.Ewma.warmed_up t.ratio
      && smoothed >= min_ratio
      && cross_z >= threshold
      && cooled
    then begin
      t.last_fire <- Some now;
      t.fires <- t.fires + 1;
      Some !hot
    end
    else None
  end
