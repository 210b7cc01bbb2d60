(* Fixture: the sink's taint finding carries an inline waiver — the
   waiver is used, counted, and not stale. *)
let wrender () =
  (* reflex-lint: allow det/taint — fixture: the sample is the contract *)
  string_of_int (Waived_leaf.wnoise ())
