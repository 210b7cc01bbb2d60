(** Wire size of {!Message.t}.

    Fixed header followed by an optional data payload (write-request
    data, read-response data).  The per-request overhead of a 4KB access
    is [header_size] bytes, matching the paper's observation that ReFlex
    requests add only tens of bytes per 4KB. *)

(** Bytes of every message header on the wire. *)
val header_size : int

(** Total wire size of a message: header plus payload. *)
val encoded_size : Message.t -> int
