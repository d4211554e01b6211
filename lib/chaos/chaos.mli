(** Chaos campaigns: randomized fault injection with seed replay.

    A campaign runs many independent simulations ("schedules"), each fully
    determined by a topology spec and one 64-bit seed: the seed builds the
    topology (for random topologies), drives the network's clock skews, and
    generates a {!Autonet_topo.Faults.random} schedule whose faults land
    while the network is still configuring — so crashes, flaps and
    partitions routinely interrupt reconfigurations in flight.  After the
    last fault the harness waits for quiescence and runs the {!Oracle}.

    Schedules fan out across a {!Autonet_parallel.Pool}; each gets its own
    engine and network, so per-schedule verdicts are bit-identical for any
    domain count.  A failing schedule reproduces from [(topology spec,
    seed)] alone; {!investigate} shrinks it greedily and packages a
    reproducer artifact with the skew-normalized merged event log. *)

open Autonet_topo

type config = {
  topo : string;
      (** topology spec: [src | line:N | ring:N | torus:R,C | random:N,E] *)
  params : Autonet_autopilot.Params.t;
  hosts : int;  (** host ports per switch (0 = none) *)
  actions : int;  (** fault actions drawn per schedule *)
  horizon : Autonet_sim.Time.t;  (** faults land in [[0, horizon)] *)
  timeout : Autonet_sim.Time.t;  (** convergence budget after the faults *)
}

val default_config : config
(** [src] topology, [fast] params, no hosts, 12 actions over a 2 s horizon,
    120 s convergence budget. *)

val build_topo : string -> seed:int64 -> hosts:int -> Builders.t
(** Parse a topology spec.  [seed] feeds random topologies; [hosts] > 0
    attaches that many (dual-homed) host ports per switch.  Raises
    [Invalid_argument] on a malformed spec. *)

val schedule_seed : seed:int64 -> int -> int64
(** The seed of schedule [i] in a campaign with the given campaign seed: a
    splitmix64 mix, so neighbouring indices get uncorrelated streams. *)

val schedule_for : config -> seed:int64 -> Faults.schedule
(** The fault schedule a given seed produces under this configuration. *)

type hook = Autonet.Network.t -> Oracle.violation list
(** Extra invariants appended to the oracle's; tests use a deliberately
    broken hook to exercise the failure path end to end. *)

val run_schedule :
  ?hook:hook ->
  ?telemetry:Autonet.Network.telemetry_mode ->
  config ->
  seed:int64 ->
  schedule:Faults.schedule ->
  Autonet.Network.t * Oracle.violation list
(** Build the network from [seed], play the schedule, wait for quiescence
    and run the oracle (plus [hook]).  Returns the final network for
    inspection along with the violations (empty = schedule passed).
    [telemetry] (default [`Disabled]) is passed to
    {!Autonet.Network.create}; telemetry is passive, so the verdict is
    identical in every mode. *)

(** {1 Campaigns} *)

type verdict = {
  index : int;
  seed : int64;  (** the schedule's own seed, replayable standalone *)
  events : int;  (** schedule length after expansion *)
  violations : Oracle.violation list;
}

val passed : verdict -> bool

val pp_verdict : Format.formatter -> verdict -> unit
(** One deterministic line per schedule — identical for any domain count,
    so campaign outputs can be compared byte for byte. *)

val run_index : ?hook:hook -> config -> seed:int64 -> int -> verdict
(** Run schedule [i] of the campaign with the given campaign seed. *)

val run_campaign :
  ?pool:Autonet_parallel.Pool.t ->
  ?hook:hook ->
  config ->
  seed:int64 ->
  schedules:int ->
  verdict array
(** Run schedules [0 .. schedules-1], fanned out across [pool] (default
    the shared pool) — one independent network per schedule — and merge
    the verdicts in index order. *)

(** {1 Failure investigation} *)

val shrink :
  ?hook:hook ->
  ?budget:int ->
  config ->
  seed:int64 ->
  schedule:Faults.schedule ->
  Faults.schedule
(** Greedily drop schedule items while the original violation labels all
    persist, restarting the scan after every successful drop; [budget]
    (default 128) caps the number of re-runs.  Returns the input unchanged
    if it does not fail. *)

type artifact = {
  a_config : config;
  a_index : int;
  a_seed : int64;
  a_schedule : Faults.schedule;
  a_violations : Oracle.violation list;
  a_shrunk : Faults.schedule;
  a_shrunk_violations : Oracle.violation list;
  a_log : (Autonet_sim.Time.t * string * string) list;
      (** tail of the skew-normalized merged event log of the shrunk
          failing run *)
  a_metrics : Autonet_telemetry.Metrics.snapshot;
      (** telemetry snapshot of the shrunk failing run (replayed with
          telemetry on) *)
  a_timeline : Autonet_telemetry.Timeline.t;
      (** reconfiguration phase timeline of the same run, exportable with
          {!Autonet_telemetry.Timeline.to_trace_json} *)
  a_recorders : (int * Autonet_telemetry.Causal.recorder_entry list) list;
      (** per-switch flight recorders of the same run — each switch's
          last autopilot events, oldest first, from
          {!Autonet.Network.recorders} ({!pp_artifact} prints them only
          when the shrunk replay still violates the oracle) *)
}

val investigate :
  ?hook:hook -> ?log_tail:int -> config -> seed:int64 -> index:int -> artifact
(** Replay schedule [index]'s seed, shrink the failure and capture the
    merged log ([log_tail] entries, default 200) plus the telemetry
    snapshot and phase timeline of the final (shrunk) replay.  Meaningful
    only for a failing schedule; a passing one yields an artifact with no
    violations. *)

val pp_artifact : Format.formatter -> artifact -> unit
(** The full reproducer: topology spec, seed, original and shrunk
    schedules, violations, merged event log, per-switch flight
    recorders (failing replays only), telemetry snapshot. *)
