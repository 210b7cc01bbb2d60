(* Aggregates every library's test suite into one alcotest binary so that
   `dune runtest` exercises the whole repository. *)

let () =
  let tag name suites = List.map (fun (n, tests) -> (name ^ "." ^ n, tests)) suites in
  Alcotest.run "reflex" (tag "engine" Test_engine.suite @ tag "stats" Test_stats.suite @ tag "flash" Test_flash.suite @ tag "proto" Test_proto.suite @ tag "net" Test_net.suite @ tag "qos" Test_qos.suite @ tag "core" Test_core.suite @ tag "apps" Test_apps.suite @ tag "experiments" Test_experiments.suite @ tag "telemetry" Test_telemetry.suite @ tag "faults" Test_faults.suite @ tag "monitor" Test_monitor.suite @ tag "obs" Test_obs.suite @ tag "rack" Test_rack.suite @ tag "rack_obs" Test_rack_obs.suite @ tag "lint" Test_lint.suite @ tag "export" Test_export_pins.suite @ tag "pins" Test_pins.suite)
