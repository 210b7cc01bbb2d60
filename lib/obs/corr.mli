(** The request correlation table: a flat open-addressing map from a
    request's [(lane, tenant, req)] key (see {!Stage}) to an int,
    allocation-free on {!put}, {!find} and {!remove}.  Keys are compared
    whole, so the map is exact.  The table does not grow: [create cap]
    holds at most [cap] live entries. *)

type t

(** [create cap] makes a table for up to [cap] live entries. *)
val create : int -> t

(** Insert or overwrite.  [lane] must be non-negative. *)
val put : t -> lane:int -> tenant:int -> req:int -> int -> unit

(** The value stored under the key, or [-1] when absent. *)
val find : t -> lane:int -> tenant:int -> req:int -> int

(** Drop the key; a no-op when absent. *)
val remove : t -> lane:int -> tenant:int -> req:int -> unit
