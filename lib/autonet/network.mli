(** A whole simulated Autonet: one {!Autonet_autopilot.Fabric} plus an
    Autopilot per switch, with convergence detection, fault injection and
    the reconfiguration-time measurement of paper section 6.6.5.

    This is the top-level entry point most examples use:

    {[
      let t = Network.create (Builders.src_service_lan ()) in
      Network.start t;
      match Network.run_until_converged t with
      | Some _ -> (* the LAN is up; inject faults, attach hosts, measure *)
      | None -> failwith "did not converge"
    ]} *)

open Autonet_core
open Autonet_autopilot

type t

type telemetry_mode = [ `Disabled | `On ]
(** [`Disabled] (the default): no registry or timeline exist — the
    instrumentation is compiled out of the pilots' paths entirely.
    [`On]: a registry and a timeline count from the first event. *)

val create :
  ?params:Params.t ->
  ?seed:int64 ->
  ?telemetry:telemetry_mode ->
  ?span_clock:(unit -> float) ->
  Autonet_topo.Builders.t ->
  t
(** [params] defaults to {!Params.tuned}; [seed] (default 1) drives clock
    skews and any stochastic behaviour.  With [`On] telemetry the
    network's {!Epoch_cache} records a compute span for each step-5
    computation it runs, stamped with the sim time, the switch whose
    lookup ran it and that switch's epoch.  [span_clock] replaces the
    wall clock those spans are measured on; inject a deterministic tick
    and the recorded spans are byte-identical across runs and domain
    counts. *)

val engine : t -> Autonet_sim.Engine.t
val fabric : t -> Fabric.t
val graph : t -> Graph.t
val params : t -> Params.t

val autopilot : t -> Graph.switch -> Autopilot.t

val epoch_cache : t -> Epoch_cache.t
(** The step-5 cache all of this network's pilots share. *)

val start : t -> unit
(** Boot every switch. *)

val now : t -> Autonet_sim.Time.t

val run_for : t -> Autonet_sim.Time.t -> unit
(** Advance the simulation by the given duration. *)

(** {1 Convergence} *)

val converged : t -> bool
(** Every live connected component of powered switches is fully
    configured, on a single epoch, with identical complete topology
    reports; and that report names exactly the component's switches and
    describes each one's live switch-to-switch links, port by port (host
    ports are not compared).  At least one switch must be powered.
    {!run_until_converged} polls it every 2 ms of simulated time.  It
    reuses its last verdict while neither {!Fabric.status_version} (link
    failures, switch power) nor any pilot's {!Autopilot.changes} (epoch,
    configured flag, complete report) has moved since it was computed, and
    then allocates nothing; otherwise it walks the physical graph in place,
    allocating a few words per switch. *)

val run_until_converged :
  ?timeout:Autonet_sim.Time.t -> t -> Autonet_sim.Time.t option
(** Run until {!converged}; returns the absolute convergence time, or
    [None] at [timeout] (default 60 simulated seconds). *)

(** {1 Faults} *)

val apply_fault : t -> Autonet_topo.Faults.event -> unit

val schedule_faults : t -> Autonet_topo.Faults.schedule -> unit
(** Install the schedule on the simulation clock. *)

(** {1 Measurement} *)

type reconfiguration_measure = {
  detection : Autonet_sim.Time.t;
      (** fault injection to the first epoch start *)
  reconfiguration : Autonet_sim.Time.t;
      (** first epoch start to the last table load (the paper's figure) *)
  total : Autonet_sim.Time.t;
  epochs_used : int;
      (** how many epochs were started before convergence *)
  control_packets : int;
  control_bytes : int;
}

val measure_reconfiguration :
  ?timeout:Autonet_sim.Time.t ->
  t ->
  trigger:(t -> unit) ->
  reconfiguration_measure option
(** From a converged network, apply [trigger] (e.g. a fault) and measure
    the reconfiguration that follows. *)

val pp_measure : Format.formatter -> reconfiguration_measure -> unit

(** {1 Telemetry} *)

val metrics : t -> Autonet_telemetry.Metrics.t option
(** The registry shared by every pilot; [None] in [`Disabled] mode. *)

val timeline : t -> Autonet_telemetry.Timeline.t option
(** The timeline shared by every pilot; [None] in [`Disabled] mode.  Besides
    the phase marks it holds one [Fault] mark per {!apply_fault} and the
    per-switch epoch milestones {!Autonet_telemetry.Causal.waves}
    replays. *)

val telemetry_snapshot : t -> Autonet_telemetry.Metrics.snapshot
(** The registry's snapshot, with the engine and fabric gauges
    ([engine.events_executed], [engine.max_queue_length],
    [fabric.packets_sent], [fabric.bytes_sent]) refreshed first, plus
    the wave-shape gauges ([causal.wave_depth], [causal.wave_fanout],
    [causal.wave_critical_hops]) from the timeline's most recent
    fully-healed epoch.  Empty in [`Disabled] mode. *)

val recorders : t -> (int * Autonet_telemetry.Causal.recorder_entry list) list
(** The flight recorders: for each switch with a non-empty log, ascending,
    its newest 64 {!Event_log} entries, oldest first, at sim time (the
    local timestamp minus the switch's skew) and rendered as the log
    renders them.  Rendered on each call; independent of the telemetry
    mode. *)

(** {1 Inspection} *)

val merged_log : t -> (Autonet_sim.Time.t * string * string) list
(** All switches' event logs, normalized and merged (section 6.7). *)

val verify_against_reference : t -> bool
(** After convergence: does every switch's loaded state agree with the
    pure reference computation on the live physical topology?  (Spanning
    tree, addresses; the cornerstone correctness check.) *)

val live : t -> Graph.t * Graph.switch list list
(** The live graph — the physical graph minus failed links and
    powered-off switches — and its connected components restricted to
    powered switches; each component ascends, components ordered by
    smallest member.  One graph build serves both. *)

val live_components : t -> Graph.switch list list
(** The components of {!live}. *)

val loaded_spec : t -> Graph.switch -> Tables.spec
(** A copy of the forwarding table currently loaded in the switch
    hardware, which stores the table spec format, tagged with the given
    switch index — what
    {!Deadlock.check_tables} and {!Verify} can analyze.  Reflects the real
    dataplane state, including host ports enabled or disabled after the
    last reconfiguration.  O(max switch number): the copy shares the live
    table's pages copy-on-write. *)
