open Reflex_engine
open Reflex_stats

type result = { iops : float; mbps : float; mean_us : float; p95_us : float; completed : int }

(* Each FIO worker is a Linux thread: submission and reaping cost CPU on
   its core (~7us per I/O round trip), capping a thread near 140K IOPS —
   which is why the paper needs 5-6 threads to reach peak (§5.6). *)
let per_io_cpu = Time.of_float_us 7.0

let run sim path ~threads ~qd ?(bytes = 4096) ?(read_ratio = 1.0) ~duration
    ?(seed = 0xF10_0001L) () k =
  if threads < 1 || qd < 1 then invalid_arg "Fio.run: threads/qd";
  let prng = Prng.create seed in
  let cores = Array.init threads (fun _ -> Resource.create sim) in
  let half_cpu = Time.scale per_io_cpu 0.5 in
  let hist = Hdr_histogram.create () in
  let started = Sim.now sim in
  let warmup_until = Time.add started (Time.scale duration 0.2) in
  let stop_at = Time.add started duration in
  let measured = ref 0 in
  let outstanding = ref 0 in
  let finished = ref false in
  let maybe_finish () =
    if (not !finished) && !outstanding = 0 && Time.(Sim.now sim >= stop_at) then begin
      finished := true;
      let window = Time.to_float_sec (Time.diff stop_at warmup_until) in
      let iops = float_of_int !measured /. window in
      k
        {
          iops;
          mbps = iops *. float_of_int bytes /. 1e6;
          mean_us = (if Hdr_histogram.count hist = 0 then Float.nan else Hdr_histogram.mean_us hist);
          p95_us =
            (if Hdr_histogram.count hist = 0 then Float.nan
             else Hdr_histogram.percentile_us hist 95.0);
          completed = !measured;
        }
    end
  in
  (* Slot cycle: charge submit CPU, issue, await completion, charge reap
     CPU, record, reissue. *)
  let rec slot core () =
    if Time.(Sim.now sim < stop_at) then begin
      let kind = Workload.kind_of prng ~read_ratio in
      let lba = Int64.of_int (Prng.int prng 8_000_000) in
      incr outstanding;
      Resource.submit core ~service:half_cpu (fun () ->
          let issued = Sim.now sim in
          Access_path.submit path ~kind ~lba ~bytes (fun ~latency:_ ->
              Resource.submit core ~service:half_cpu (fun () ->
                  decr outstanding;
                  if Time.(issued >= warmup_until) && Time.(issued < stop_at) then begin
                    incr measured;
                    Hdr_histogram.record hist (Time.diff (Sim.now sim) issued)
                  end;
                  slot core ();
                  maybe_finish ())))
    end
    else maybe_finish ()
  in
  for i = 0 to (threads * qd) - 1 do
    let core = cores.(i mod threads) in
    ignore (Sim.at sim (Sim.now sim) (slot core))
  done
