(** The control-plane physical substrate.

    Models what the control processors and host controllers can observe and
    do at single-hop granularity: send a packet out a port (it arrives at
    whatever the cable reaches after serialization at 100 Mbit/s plus
    propagation delay), and poll a port's health.  Multi-hop data traffic
    is the dataplane simulators' business; every control protocol in the
    paper — tree positions, topology reports, connectivity probes, SRP,
    host address queries — is hop-by-hop, so this single-hop fabric carries
    all of it.

    Physical modelling choices (documented in DESIGN.md):
    - a control processor handles received packets one at a time, each
      costing [processing_delay]; arrivals queue (the 68000 is the
      bottleneck the paper tuned);
    - a failed link drops packets and shows continuous errors at both ends;
    - a cable to a powered-off switch or host reflects transmissions back
      to the sender (the coax behaviour of section 5.3) and shows a clean
      status — detecting a dead neighbour is the connectivity monitor's
      job, exactly as in the paper;
    - an uncabled port shows errors (the common observed fingerprint). *)

open Autonet_net
open Autonet_core

type t

val create :
  engine:Autonet_sim.Engine.t -> graph:Graph.t -> params:Params.t -> t
(** Snapshots what every port's cable reaches: the fabric carries the
    graph as it is at creation, so cable changes after [create] are not
    seen (the simulated cabling is fixed; faults fail links instead). *)

val engine : t -> Autonet_sim.Engine.t
val graph : t -> Graph.t
val params : t -> Params.t

(** {1 Attachment} *)

val attach_switch : t -> Graph.switch -> rx:(port:int -> Packet.t -> unit) -> unit
(** Install the control processor's receive handler.  The handler runs
    after the packet's turn in the processing queue. *)

val attach_host_port : t -> Graph.endpoint -> rx:(Packet.t -> unit) -> unit

(** {1 Sending} *)

val switch_send : t -> from:Graph.switch -> port:int -> Packet.t -> unit
(** Transmit out an external port.  Silently dropped when the sending
    switch is off, the port leads nowhere live, or the link has failed. *)

val host_send : t -> Graph.endpoint -> Packet.t -> unit
(** A host controller transmits into its attached switch port. *)

(** {1 Component health} *)

val fail_link : t -> Graph.link_id -> unit
(** A failed link drops every packet that has not arrived when it
    fails, and every packet sent over it until it is repaired.  Raises
    [Invalid_argument] naming the id unless it is in
    [0 .. Graph.max_link_id] of the graph at {!create}. *)

val repair_link : t -> Graph.link_id -> unit
(** Same range as {!fail_link}. *)

val link_failed : t -> Graph.link_id -> bool
(** A flag read, O(1); [false] for an id outside the range. *)

val power_off_switch : t -> Graph.switch -> unit
(** Drops the processing queue.  The upper layer is responsible for
    resetting the Autopilot instance on power-on. *)

val power_on_switch : t -> Graph.switch -> unit

val power_off_host : t -> Graph.endpoint -> unit
val power_on_host : t -> Graph.endpoint -> unit

(** {1 Port observation and signalling} *)

type flow_mode =
  | Flow_normal  (** start/stop per FIFO state *)
  | Flow_idhy    (** the port is in s.dead: force the peer to distrust the link *)

val set_port_flow : t -> Graph.switch -> port:int -> flow_mode -> unit

(** What the status sampler reads for a port: the four conditions its
    link unit's status bits tell apart (paper section 6.5.2). *)
type status =
  | Clean   (** no trouble: a live link, a loop, or a cable that reflects
                off a powered-off switch or host *)
  | Errors  (** BadCode-class trouble: an uncabled port or a failed link *)
  | Idhy    (** the peer is sending idhy *)
  | Host    (** a powered host controller is attached, on its primary
                port or its alternate *)

val sample_port : t -> Graph.switch -> port:int -> status
(** The port's status right now. *)

val status_version : t -> int
(** A count that moves whenever an answer of {!sample_port} may have
    changed: {!fail_link}, {!repair_link}, switch and host power off and
    on, and {!set_port_flow} when the mode changes (not when it is set
    again).  While it stands still every port reads the status it last
    read, so the status sampler skips the ports whose state ignores it. *)

(** {1 Accounting} *)

type stats = {
  packets_sent : int;
  bytes_sent : int;
  packets_dropped : int;
  reflections : int;
}

val stats : t -> stats
val reset_stats : t -> unit
