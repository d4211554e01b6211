(** Autopilot: the switch control program (paper section 5.4).

    One instance per switch.  It composes the port monitor (status sampler,
    connectivity monitor, skeptics), the distributed reconfiguration
    protocol, the forwarding table, the SRP debugging responder, the host
    address service and the circular event log, and drives them from the
    control-plane {!Fabric}.

    Every event the instance sees — from the monitor, the
    reconfiguration protocol or the pilot itself — passes through one
    recorder.  It appends the event to the circular log, counts it in
    the metrics registry and, when the event marks a milestone
    ([Epoch_started], [Position_adopted], [Skeptic_backoff],
    [Subtree_stable], the root's [Tables_computed], the step-5
    [Table_loading] and [Configured]), records the matching
    {!Autonet_telemetry.Timeline} mark.  [Subtree_stable] reaches only
    the timeline.

    Forwarding-table reloads are destructive: while a reload is in
    progress, packets arriving at this switch are lost, reproducing the
    cost the paper attributes to the reset-coupled reload.

    A port that becomes s.host after a reconfiguration is enabled in the
    loaded table without a new one (paper 6.5.3), and a port that stops
    being one is disabled, each by one {!Tables.add_host_port} or
    {!Tables.remove_host_port} on the live table's spec.  A table load
    reconciles the loaded rows with the ports that are hosts at that
    instant: the epoch's snapshot drew its own host ports. *)

open Autonet_net
open Autonet_core

type t

val create :
  fabric:Fabric.t ->
  epochs:Epoch_cache.t ->
  switch:Graph.switch ->
  ?clock_skew:Autonet_sim.Time.t ->
  ?metrics:Autonet_telemetry.Metrics.t ->
  ?timeline:Autonet_telemetry.Timeline.t ->
  ?span_clock:(unit -> float) ->
  unit ->
  t
(** Builds the instance and registers its receive handler with the fabric;
    call {!start} to boot it.  [epochs] is the network's step-5 cache,
    shared by all its pilots.  [metrics] (shared by all of a network's
    pilots) adds counters to the receive and event paths; [timeline]
    (also shared) receives the milestone marks — phase boundaries plus
    the per-switch epoch parentage and sim-time milestones that
    {!Autonet_telemetry.Causal} replays.  Omitting them compiles the
    instrumentation out of this pilot entirely.  [span_clock] replaces
    the wall clock the delta compute spans are measured on — inject a
    deterministic tick and the span durations become byte-identical
    across runs. *)

val start : t -> unit
(** Power-on: all ports in s.dead, epoch zero, begin monitoring. *)

val power_off : t -> unit
(** Stop all activity and forget volatile state.  {!start} reboots. *)

val powered : t -> bool

(** {1 Inspection} *)

val switch : t -> Graph.switch
val uid : t -> Uid.t
val epoch : t -> Epoch.t
val configured : t -> bool
(** The step-5 table is loaded and host traffic flows. *)

val position : t -> Spanning_tree.Position.t
val port_state : t -> port:int -> Port_state.t

val skeptic_holds : t -> (int * Autonet_sim.Time.t * Autonet_sim.Time.t) list
(** Per external port, the current (status, connectivity) skeptic
    hold-downs; see {!Port_monitor.skeptic_holds}. *)

val forwarding_table : t -> Autonet_switch.Forwarding_table.t
val switch_number : t -> int option
val complete_report : t -> Topology_report.t option

val delta_spec : t -> Tables.spec option
(** This switch's table for the current epoch when its own delta
    classification passed; [None] does not mean the full path built it.
    See {!Reconfig.delta_spec}. *)

val root_verdict : t -> Deadlock.result option
(** The deadlock verdict this switch computed as root for the current
    epoch, whichever path produced it; [None] off-root or mid-epoch. *)

val event_log : t -> Event_log.t
(** The circular log; each entry carries the epoch it was logged in. *)

type stats = {
  reconfigurations_started : int;   (** epochs entered *)
  configurations_completed : int;   (** step-5 loads finished *)
  packets_lost_to_reset : int;      (** rx destroyed by table reloads *)
  last_epoch_started_at : Autonet_sim.Time.t option;
  last_configured_at : Autonet_sim.Time.t option;
}

val stats : t -> stats

(** {1 Control} *)

val initiate_reconfiguration : t -> reason:string -> unit
(** Force a new epoch (used by tests; normally the port monitor decides). *)

val force_port_dead : t -> port:int -> unit

(** {1 Software rollout (paper 5.4, 7)} *)

val software_version : t -> int
(** The running Autopilot version (1 at first boot). *)

val release_version : t -> version:int -> unit
(** Download a new Autopilot into this switch (the paper's host-to-nearest-
    switch path).  The switch reboots into it — losing all volatile state
    and triggering reconfigurations — and, after the configured propagation
    delay, offers the version to its neighbours, which do the same.  A
    rollout therefore sweeps the network, causing the burst of
    reconfigurations section 7 describes; the propagation delay is the
    paper's damping knob. *)
