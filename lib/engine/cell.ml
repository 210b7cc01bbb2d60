type t = { mutable v : float }
