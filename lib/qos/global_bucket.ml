module Cell = Reflex_engine.Cell

type t = {
  level : Cell.t;
  (* [active.(i)]: thread [i]'s mark gates the reset; [marked.(i)]: it
     has marked since the last reset.  Marks are only taken from active
     threads, so the reset is due when the two counts meet. *)
  mutable active : bool array;
  mutable n_active : int;
  mutable marked : bool array;
  mutable n_marked : int;
  mutable resets : int;
}

let create ~n_threads =
  if n_threads < 1 then invalid_arg "Global_bucket.create: n_threads < 1";
  {
    level = { Cell.v = 0.0 };
    active = Array.make n_threads true;
    n_active = n_threads;
    marked = Array.make n_threads false;
    n_marked = 0;
    resets = 0;
  }

let cell t = t.level
let level t = t.level.v

let mark_round t ~thread_id =
  if thread_id < 0 || thread_id >= Array.length t.active || not t.active.(thread_id) then
    invalid_arg "Global_bucket.mark_round: thread not active";
  if not t.marked.(thread_id) then begin
    t.marked.(thread_id) <- true;
    t.n_marked <- t.n_marked + 1
  end;
  let all = t.n_marked = t.n_active in
  if all then begin
    t.level.v <- 0.0;
    (* A loop, not [Array.fill]: that is a C call, and making it every
       round cost ~15% of perfbench qos_mix's setup_s. *)
    for i = 0 to Array.length t.marked - 1 do
      t.marked.(i) <- false
    done;
    t.n_marked <- 0;
    t.resets <- t.resets + 1
  end;
  all

let resets t = t.resets

let set_active_threads t ids =
  if ids = [] then invalid_arg "Global_bucket.set_active_threads: empty";
  let n = 1 + List.fold_left max 0 ids in
  let active = Array.make n false in
  List.iter (fun i -> active.(i) <- true) ids;
  t.active <- active;
  t.n_active <- Array.fold_left (fun c on -> if on then c + 1 else c) 0 active;
  t.marked <- Array.make n false;
  t.n_marked <- 0
