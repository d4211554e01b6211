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
    5. every switch independently recomputes spanning tree, up*/down*
       orientation, routes and forwarding table from the complete report
       (all pure functions of it, so all switches agree), loads the table,
       and reopens for host traffic.

    The instance reports progress through the [callbacks]. *)

open Autonet_net
open Autonet_core

type callbacks = {
  cb_send : port:int -> Messages.t -> unit;
  cb_load_constant : unit -> unit;
      (** begin the step-1 destructive reload *)
  cb_load_tables : Tables.spec -> parent:int option -> children:int list -> unit;
      (** begin the step-5 destructive reload; [parent] and [children] are
          this switch's spanning-tree ports, the flood structure a late
          host-port enable extends *)
  cb_configured : unit -> unit;
      (** the step-5 reload finished; open for business *)
  cb_log : Event.t -> unit;
  cb_mark : Autonet_telemetry.Timeline.kind -> unit;
      (** phase-timeline milestones ([Epoch_start], [Tree_stable],
          [Reports_closed], [Load_begin], [Configured]); the owner stamps
          time, epoch and switch id *)
  cb_span : name:string -> dur_s:float -> unit;
      (** compute sub-phases of the delta fast path ([delta_classify],
          [delta_routes], [delta_tables], [delta_deadlock]), measured on
          {!cb_clock}; the owner stamps sim time, epoch and switch id *)
  cb_clock : unit -> float;
      (** the clock the compute spans read — [Unix.gettimeofday] for the
          benches, or an injected deterministic tick so the spans (and
          hence the telemetry smoke output) are byte-identical across
          runs and domain counts *)
}

type t

val create :
  fabric:Fabric.t ->
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
val assignment : t -> Address_assign.t option
(** The address assignment of the last completed epoch. *)

val complete_report : t -> Topology_report.t option

val delta_spec : t -> Tables.spec option
(** The table this switch loaded in the current epoch {e if} the epoch
    took the incremental (delta) path; [None] when the full path ran.
    The chaos oracle cross-checks it bit-for-bit against a from-scratch
    recompute of the same complete report. *)

val root_verdict : t -> Deadlock.result option
(** The deadlock verdict this switch computed as root for the current
    epoch, whichever path produced it; [None] off-root or mid-epoch. *)

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
