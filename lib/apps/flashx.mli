(** FlashX graph-analytics workload models (Figure 7b).

    FlashX runs graph algorithms over SAFS, a user-space filesystem that
    streams vertex/edge pages from Flash with deep asynchronous I/O.  The
    paper evaluates four benchmarks on the SOC-LiveJournal1 graph (4.8M
    vertices, 68.9M edges).  Each benchmark here is an I/O-phase model
    capturing what determines remote-access slowdown: how fast the
    computation demands pages (throughput sensitivity) and how much
    dependent, serial page chasing it does (latency sensitivity).
    BFS and SCC demand pages faster and have more serial traversal than
    the bandwidth-friendly WCC/PageRank scans, which is why iSCSI slows
    them most (paper: 40%% vs 15%%) while ReFlex stays within ~4%%. *)

open Reflex_engine

type bench = { name : string; phases : Workload.phase list }

(** The four paper benchmarks, scaled 1:16 from LiveJournal (so a run
    completes in simulable time); relative I/O structure is preserved. *)
val wcc : bench

val bfs : bench
val all : bench list

(** [run sim path bench k] — [k ~elapsed] with end-to-end runtime. *)
val run : Sim.t -> Access_path.t -> bench -> (elapsed:Time.t -> unit) -> unit
