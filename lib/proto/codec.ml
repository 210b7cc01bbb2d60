(* Simulated messages travel as OCaml values; only their wire size is
   modelled.  The header it charges is the 28-byte little-endian layout
   of the ReFlex wire format:
   0  u16 magic 0x5246 ("RF")
   2  u8  opcode
   3  u8  status/flags
   4  u32 handle / tenant id
   8  u64 req id
   16 u64 lba          (register: packed SLO)
   24 u32 len          (payload length, or SLO flags for register) *)

let header_size = 28

let encoded_size msg = header_size + Message.payload_bytes msg
