type kind = Read | Write

let lba_size = 4096

let sectors_of_bytes b =
  if b <= 0 then invalid_arg "Io_op.sectors_of_bytes: non-positive size";
  max 1 ((b + lba_size - 1) / lba_size)
