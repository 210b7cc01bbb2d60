(* reflex-lint: allow det/taint — fixture: nothing left here for this waiver to suppress *)
let quiet x = x + 1
