(** ReFlex wire protocol: message types (paper Table 1) and their wire
    sizes. *)

module Message = Message
module Codec = Codec
