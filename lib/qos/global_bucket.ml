module Cell = Reflex_engine.Cell

type t = {
  level : Cell.t;
  (* [marked.(i)]: thread [i] has marked since the last reset; the reset
     is due when every thread has. *)
  marked : bool array;
  mutable n_marked : int;
  mutable resets : int;
}

let create ~n_threads =
  if n_threads < 1 then invalid_arg "Global_bucket.create: n_threads < 1";
  { level = { Cell.v = 0.0 }; marked = Array.make n_threads false; n_marked = 0; resets = 0 }

let cell t = t.level
let level t = t.level.v

let mark_round t ~thread_id =
  if thread_id < 0 || thread_id >= Array.length t.marked then
    invalid_arg "Global_bucket.mark_round: thread out of range";
  if not t.marked.(thread_id) then begin
    t.marked.(thread_id) <- true;
    t.n_marked <- t.n_marked + 1
  end;
  let all = t.n_marked = Array.length t.marked in
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
