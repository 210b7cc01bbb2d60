(** Figure 6: scalability in cores, tenants and connections.

    - 6a: 1..12 cores, one LC tenant per core (20K IOPS, 90%% reads, 2ms
      p95) plus two best-effort tenants; LC throughput must scale
      linearly while the token usage rate stays pinned at the device's
      2ms-SLO ceiling.
    - 6b: thousands of tenants, each one connection issuing 100 1KB-read
      IOPS, against 1/2/4-core servers; a core manages ~2.5K tenants.
    - 6c: one tenant with thousands of TCP connections on one core at
      100/500/1000 IOPS per connection; connection state overflows the
      LLC past ~5K connections. *)

type core_row = {
  cores : int;
  lc_kiops : float;
  be_kiops : float;
  ktokens_per_sec : float;
  lc_p95_worst_us : float;
}

type tenant_row = {
  server_cores : int;
  tenants : int;
  achieved_kiops : float;
  p95_us : float;
}

type conn_row = {
  iops_per_conn : int;
  conns : int;
  achieved_kiops : float;
  p95c_us : float;
}

val run_cores : ?mode:Common.mode -> unit -> core_row list
val run_tenants : ?mode:Common.mode -> unit -> tenant_row list
val run_conns : ?mode:Common.mode -> unit -> conn_row list

val cores_table : core_row list -> Reflex_stats.Table.t

(** Fig 6a's acceptance rows: LC scales ~12x, BE shrinks, and at every
    core count tokens stay pinned and every LC p95 is under 2ms. *)
val cores_checks : core_row list -> Identity.check list

val tenants_table : tenant_row list -> Reflex_stats.Table.t
val conns_table : conn_row list -> Reflex_stats.Table.t
