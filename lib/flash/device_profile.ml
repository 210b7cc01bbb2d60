open Reflex_engine

type t = {
  name : string;
  n_dies : int;
  t_read : Time.t;
  ro_speedup : float;
  read_pipeline : Time.t;
  t_write_ack : Time.t;
  write_cost : float;
  erase_every : int;
  erase_frac : float;
  service_sigma : float;
  write_ack_sigma : float;
  write_buffer_slots : int;
  ro_window : Time.t;
  sq_depth : int;
  wear : float;
}

let with_wear p ~wear =
  if wear < 1.0 then invalid_arg "Device_profile.with_wear: wear < 1.0";
  { p with wear }

(* Device A is the paper's headline device (Figures 1, 3a): 1M read-only
   IOPS, 78us unloaded read, 11us buffered write, write cost 10 tokens.
   44 dies x 80us mixed-read occupancy = 550K tokens/s; the read-only
   fast path halves occupancy (C(read,100%) = 1/2), giving 1.1M IOPS. *)
let device_a =
  {
    name = "A";
    n_dies = 44;
    t_read = Time.us 80;
    ro_speedup = 2.0;
    read_pipeline = Time.us 38;
    t_write_ack = Time.of_float_us 10.5;
    write_cost = 10.0;
    erase_every = 32;
    erase_frac = 0.2;
    service_sigma = 0.16;
    write_ack_sigma = 0.29;
    write_buffer_slots = 512;
    ro_window = Time.ms 1;
    sq_depth = 1024;
    wear = 1.0;
  }

(* Device B (Figure 3b): older/smaller device — ~300K tokens/s, writes cost
   20 tokens, and no read-only discount. *)
let device_b =
  {
    name = "B";
    n_dies = 26;
    t_read = Time.us 85;
    ro_speedup = 1.0;
    read_pipeline = Time.us 45;
    t_write_ack = Time.of_float_us 14.0;
    write_cost = 20.0;
    erase_every = 24;
    erase_frac = 0.25;
    service_sigma = 0.20;
    write_ack_sigma = 0.32;
    write_buffer_slots = 256;
    ro_window = Time.ms 1;
    sq_depth = 1024;
    wear = 1.0;
  }

(* Device C (Figure 3c): ~600K tokens/s, writes cost 16 tokens, modest
   read-only discount. *)
let device_c =
  {
    name = "C";
    n_dies = 50;
    t_read = Time.us 82;
    ro_speedup = 1.25;
    read_pipeline = Time.us 40;
    t_write_ack = Time.of_float_us 12.0;
    write_cost = 16.0;
    erase_every = 28;
    erase_frac = 0.22;
    service_sigma = 0.18;
    write_ack_sigma = 0.30;
    write_buffer_slots = 384;
    ro_window = Time.ms 1;
    sq_depth = 1024;
    wear = 1.0;
  }

let all = [ device_a; device_b; device_c ]

let read_only_iops p =
  float_of_int p.n_dies /. (Time.to_float_sec p.t_read /. p.ro_speedup)

let token_capacity p = float_of_int p.n_dies /. Time.to_float_sec p.t_read

(* Hockey-stick onset (Figures 1/3): beyond this weighted token rate,
   die queueing dominates service time and tail latency takes off.  The
   0.8 default matches where the calibrated curves leave their flat
   region (device A: ~340K of ~425K tokens/s). *)
let knee_token_rate ?(frac = 0.8) p =
  if frac <= 0.0 || frac > 1.0 then invalid_arg "Device_profile.knee_token_rate: frac";
  frac *. token_capacity p
