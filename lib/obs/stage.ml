open Reflex_engine

(* The one request-stage vocabulary shared by every request tracer:
   telemetry's per-server spans, the rack tracer's hop stamps, their
   correlation key, their tiling into latency components and their SLO
   attribution. *)

type t =
  | Client_submit
  | Server_rx
  | Sched_enqueue
  | Granted
  | Nvme_submit
  | Nvme_complete
  | Tx_resp
  | Client_complete
  | Pick

let to_int = function
  | Client_submit -> 0
  | Server_rx -> 1
  | Sched_enqueue -> 2
  | Granted -> 3
  | Nvme_submit -> 4
  | Nvme_complete -> 5
  | Tx_resp -> 6
  | Client_complete -> 7
  | Pick -> 8

let name = function
  | Client_submit -> "client_submit"
  | Server_rx -> "server_rx"
  | Sched_enqueue -> "sched_enqueue"
  | Granted -> "token_grant"
  | Nvme_submit -> "nvme_submit"
  | Nvme_complete -> "nvme_complete"
  | Tx_resp -> "tx_resp"
  | Client_complete -> "client_complete"
  | Pick -> "pick"

(* ---------------- stage lists ---------------- *)

let request_path =
  [| Client_submit; Server_rx; Sched_enqueue; Granted; Nvme_submit; Nvme_complete; Tx_resp;
     Client_complete |]

let of_int = function
  | 8 -> Pick
  | n when n >= 0 && n < 8 -> request_path.(n)
  | n -> invalid_arg (Printf.sprintf "Stage.of_int: %d" n)

let component_names =
  [| "net_in"; "parse_enqueue"; "sched_wait"; "sq_submit"; "nvme"; "cq_tx"; "net_out" |]

let component_count = Array.length component_names
let rack_path = [| Pick; Client_submit; Nvme_submit; Nvme_complete; Client_complete |]

(* ---------------- tiling and attribution ---------------- *)

(* Times are nanoseconds in plain ints so the rack's per-completion
   scratch stays unboxed.  Missing stamps are negative.  Filling back to
   front makes each gap take the next present stamp's time, so the whole
   gap lands in the component before it; the first and last stamps must
   be present. *)
let tile ~(stamps : int array) ~(comps : int array) ~off =
  let n = Array.length stamps in
  let filled = ref 0 in
  for i = n - 2 downto 1 do
    if stamps.(i) < 0 then begin
      stamps.(i) <- stamps.(i + 1);
      incr filled
    end
  done;
  for i = 0 to n - 2 do
    comps.(off + i) <- stamps.(i + 1) - stamps.(i)
  done;
  !filled

let dominant (a : int array) =
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    if a.(i) > a.(!best) then best := i
  done;
  !best

(* ---------------- the stage sink ---------------- *)

type write = lane:int -> tenant:int -> req:int64 -> now:Time.t -> t -> unit

(* [mask] has bit [to_int stage] set when some consumer wants [stage]. *)
type sink = { lane : int; mutable mask : int; mutable write : write }

let sink ~lane = { lane; mask = 0; write = (fun ~lane:_ ~tenant:_ ~req:_ ~now:_ _ -> ()) }

(* Consumers chain: a second [attach] wraps the first writer, so a stamp
   costs one closure call at the site whatever is attached. *)
let attach s ~stages f =
  (if s.mask = 0 then s.write <- f
   else
     let prev = s.write in
     s.write <-
       (fun ~lane ~tenant ~req ~now stage ->
         prev ~lane ~tenant ~req ~now stage;
         f ~lane ~tenant ~req ~now stage));
  List.iter (fun st -> s.mask <- s.mask lor (1 lsl to_int st)) stages

let armed s stage = s.mask land (1 lsl to_int stage) <> 0 [@@inline]
let lane s = s.lane
let stamp s ~tenant ~req ~now stage = s.write ~lane:s.lane ~tenant ~req ~now stage
