(* The one pin table.  pins.md5 (md5sum format: "<md5>  <name>") holds
   the MD5 of every pinned render and export: the five trace_event
   writers on their fixed inputs (test_export_pins.ml) and the quick-size
   scenario renders that tier-1 already builds (scenarios.ml).  One case
   digests them all in one pass.  A mismatch fails it once, naming every
   moved pin with its replacement line, ready to paste; a table name no
   render produces fails it too.  A change that moves a render on purpose
   pastes the printed lines into pins.md5 and says why in CHANGES.md. *)

open Reflex_experiments
open Reflex_telemetry

let force = Lazy.force

(* Every pinned value, by table name, in table order. *)
let renders =
  [
    ("Trace_export.to_chrome_json", fun () -> force Test_export_pins.request_trace_json);
    ("Flight_dump.to_chrome_json", fun () -> fst (force Test_export_pins.flight_dump));
    ("Flight_dump.debrief", fun () -> snd (force Test_export_pins.flight_dump));
    ("Rack_rollup.chrome_trace", fun () -> fst (force Test_export_pins.rack_rollup));
    ("Rack_rollup.stitch", fun () -> snd (force Test_export_pins.rack_rollup));
    ("chaos/quick/seed42", fun () -> Chaos.render_result (force Scenarios.chaos));
    ("monitor/quick/seed11", fun () -> force Scenarios.monitor);
    ("obs/quick/seed42", fun () -> Obs_exp.render_result (force Scenarios.obs));
    ( "obs/quick/seed42/dump.json",
      fun () -> Option.value ~default:"" (Obs_exp.first_debrief (force Scenarios.obs)) );
    ("rack/small", fun () -> Rack_exp.render_result (force Scenarios.rack_small));
    ("trace/quick", fun () -> Tracing.render_result (force Scenarios.trace));
    ( "trace/quick/chrome.json",
      fun () -> Trace_export.to_chrome_json (force Scenarios.trace).Tracing.telemetry );
  ]

(* dune runs the suite in _build/default/test; from the repo root the
   table is test/pins.md5. *)
let table_path = if Sys.file_exists "pins.md5" then "pins.md5" else Filename.concat "test" "pins.md5"

let read_table () =
  In_channel.with_open_text table_path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         if String.length l > 34 && String.sub l 32 2 = "  " then
           (String.sub l 34 (String.length l - 34), String.sub l 0 32)
         else Alcotest.failf "%s: not an md5sum line: %S" table_path l)

let line name digest = Printf.sprintf "%s  %s" digest name

let test_table () =
  let table = read_table () in
  let moved =
    List.filter_map
      (fun (name, render) ->
        let digest = Digest.to_hex (Digest.string (render ())) in
        match List.filter (fun (n, _) -> n = name) table with
        | [ (_, d) ] when d = digest -> None
        | [] -> Some (Printf.sprintf "unpinned %s; add:\n  %s" name (line name digest))
        | entries ->
          Some
            (Printf.sprintf "moved %s (table %s); replace with:\n  %s" name
               (String.concat ", " (List.map snd entries))
               (line name digest)))
      renders
  in
  let stale =
    List.filter_map
      (fun (name, _) ->
        if List.mem_assoc name renders then None
        else Some (Printf.sprintf "stale %s: no render produces it; delete its line" name))
      table
  in
  match moved @ stale with
  | [] -> ()
  | problems ->
    Alcotest.failf "%s does not match the renders:\n%s" table_path
      (String.concat "\n" problems)

let suite = [ ("table", [ Alcotest.test_case "every pin matches pins.md5" `Slow test_table ]) ]
