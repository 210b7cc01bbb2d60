(* Domain-pool fan-out for independent sweep points.

   Design notes:
   - Work distribution is a single shared [Atomic] index: domains pull
     the next un-started point until the list is exhausted.  Points vary
     wildly in cost (a fig6b point simulates 10,000 tenants; a table2 row
     is a qd-1 probe), so dynamic pulling beats static chunking.
   - Results land in a per-index slot, then are read back in order: the
     merged output is byte-identical to the serial run.  Each point owns
     a fresh [Sim.t] and world; nothing mutable is shared across points,
     which is what makes this safe (see DESIGN.md).
   - The calling domain is worker number zero, so [jobs = 1] spawns no
     domains at all and [jobs = n] uses exactly [n - 1] spawns.
   - On exception: the first failure is recorded, every worker stops
     pulling new points, all domains are joined, then the exception is
     re-raised with its backtrace on the caller. *)

let default = Atomic.make (Domain.recommended_domain_count ())

let default_jobs () = Atomic.get default
let set_default_jobs n = Atomic.set default (max 1 n)

let map ?jobs f xs =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let items = Array.of_list xs in
  let n = Array.length items in
  let jobs = min jobs n in
  if jobs <= 1 then List.map f xs
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n || Atomic.get failure <> None then continue := false
        else
          match f items.(i) with
          | r -> results.(i) <- Some r
          | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set failure None (Some (e, bt)));
            continue := false
      done
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    (match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false (* unreachable: no failure *)) results)
  end

let concat_map ?jobs f xs = List.concat (map ?jobs f xs)
