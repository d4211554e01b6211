(** The distributed reconfiguration protocol (paper sections 4.1, 6.6).

    One instance per switch.  The protocol runs in epochs: a switch that
    notices a relevant port-state change increments its epoch and starts
    over; any switch hearing a larger epoch joins it and abandons its
    state.  Within an epoch the five steps of section 6.6 unfold:

    1. the forwarding table is reloaded with only the constant one-hop
       entries (a destructive reset: packets arriving during the reload
       are lost), and tree-position packets flow to all usable neighbours;
    2. the extended Perlman algorithm converges, with stability detection:
       a switch is {e stable} once all neighbours have acknowledged its
       current position and all claiming children have delivered their
       subtree topology reports;
    3-4. the root — the one switch whose unstable-to-stable transition is
       definitive — resolves switch-number proposals and floods the
       complete topology down the tree;
    5. every switch derives spanning tree, up*/down* orientation, routes
       and forwarding table from the complete report, loads the table,
       and reopens for host traffic.  In the paper each switch computes
       them itself; they are pure functions of the report (and, on the
       delta path, of the previous commit), so here the network's
       {!Epoch_cache} computes them once for all its switches (and
       times what it computes) and each switch reports the events and
       statistics its own computation would have produced.

    The instance reports progress through the [callbacks]. *)

open Autonet_net
open Autonet_core

type callbacks = {
  cb_send : port:int -> Messages.t -> unit;
  cb_load_constant : unit -> unit;
      (** begin the step-1 destructive reload *)
  cb_load_tables : Tables.spec -> unit;
      (** begin the step-5 destructive reload *)
  cb_configured : unit -> unit;
      (** the step-5 reload finished; open for business *)
  cb_log : Event.t -> unit;
      (** everything the instance reports; the owner stamps time, epoch
          and switch id, and derives its phase-timeline marks from these
          events.  The instance times nothing: the {!Epoch_cache} records
          the compute spans of step 5 where it runs them. *)
}

type t

val create :
  fabric:Fabric.t ->
  epochs:Epoch_cache.t ->
  switch:Graph.switch ->
  uid:Uid.t ->
  callbacks:callbacks ->
  unit ->
  t

val epoch : t -> Epoch.t
val position : t -> Spanning_tree.Position.t
val stable : t -> bool
val configured : t -> bool
val proposed_number : t -> int
(** The switch number this switch will propose next epoch (its current
    assignment, or 1 before any). *)

val switch_number : t -> int option

val complete_report : t -> Topology_report.t option

val delta_spec : t -> Tables.spec option
(** The table this switch loaded in the current epoch when its own delta
    classification passed.  [None] does not mean the full path built the
    table: a switch that fell back, or had no previous commit, loads its
    entry's canonical tables, which a delta apply may have built.  Only
    bench/e2e's capture and tests read it; the chaos oracle checks every
    loaded table whatever its path. *)

val root_verdict : t -> Deadlock.result option
(** The deadlock verdict this switch computed as root for the current
    epoch, whichever path produced it; [None] off-root or mid-epoch. *)

val changes : t -> int
(** A count that moves whenever {!epoch}, {!configured} or
    {!complete_report} may have changed: {!start_epoch}, the arrival of
    the complete report, {!note_configured} and {!stop} bump it. *)

val start_epoch :
  t ->
  ?join:Epoch.t ->
  usable:(int * Uid.t * int) list ->
  host_ports:int list ->
  unit ->
  unit
(** Enter a new epoch (the successor of the local epoch, or [join] when
    adopting a larger one heard from a neighbour).  [usable] lists the
    Switch_good ports as [(port, neighbour uid, neighbour port)];
    [host_ports] the ports in s.host.  Both are frozen for the epoch. *)

val handle_message : t -> port:int -> Messages.t -> [ `Handled | `Join_epoch of Epoch.t | `Ignored ]
(** Process a reconfiguration message arriving on [port].  [`Join_epoch e]
    means the message carries a larger epoch: the owner must snapshot the
    current port states and call {!start_epoch} with [~join:e], then
    re-deliver the message. *)

val note_configured : t -> unit
(** The owner reports that the step-5 table reload has finished and the
    switch is open for host traffic. *)

val on_retransmit_timer : t -> unit
(** Called every retransmit interval: re-send unacknowledged messages. *)

val stop : t -> unit
(** Power-off: forget everything (epoch resets to zero on reboot). *)
