(* Tests for the wire protocol: per-message wire sizes. *)

open Reflex_proto

let test_payload_sizes () =
  let read_req = Message.Read_req { handle = 1; req_id = 1L; lba = 0L; len = 4096 } in
  Alcotest.(check int) "read request carries no data" Codec.header_size
    (Codec.encoded_size read_req);
  let write_req = Message.Write_req { handle = 1; req_id = 1L; lba = 0L; len = 4096 } in
  Alcotest.(check int) "write request carries data" (Codec.header_size + 4096)
    (Codec.encoded_size write_req);
  let resp_ok = Message.Read_resp { req_id = 1L; status = Message.Ok; len = 4096 } in
  Alcotest.(check int) "ok read response carries data" (Codec.header_size + 4096)
    (Codec.encoded_size resp_ok);
  let resp_err = Message.Read_resp { req_id = 1L; status = Message.Out_of_range; len = 4096 } in
  Alcotest.(check int) "failed read response carries none" Codec.header_size
    (Codec.encoded_size resp_err);
  (* Paper: per-4KB-request overhead is tens of bytes. *)
  Alcotest.(check bool) "header under 40 bytes" true (Codec.header_size <= 40)

let suite = [ ("codec", [ Alcotest.test_case "payload sizing" `Quick test_payload_sizes ]) ]
