(** Slot-level (flit) data-plane simulator.

    Advances the whole network one 80 ns slot per tick and models exactly
    the mechanisms of paper sections 5.1, 6.1, 6.2 and 6.4:

    - every 256th slot on a channel is a flow-control slot carrying
      start/stop (host ports send [host]; hosts never send stop);
    - each switch port buffers arriving slots in a bounded FIFO whose
      half-full threshold drives the reverse channel's flow control;
    - the router makes one scheduling pass per 6 slots (480 ns) using the
      first-come first-considered engine, and sets up cut-through paths as
      soon as a packet's two address bytes reach the head of its FIFO;
    - a broadcast transmitter optionally ignores stop until the end of the
      packet — the paper's deadlock fix, switchable to reproduce the
      Figure 9 broadcast deadlock;
    - congestion backs up across switches; nothing is ever discarded except
      by all-zero (discard) forwarding entries.

    Intended for small networks and short windows (its cost is one pass
    over all ports per 80 ns); the packet-level simulator covers large
    throughput studies. *)

open Autonet_net
open Autonet_core

type config = {
  fifo_capacity : int;            (** cells per receive FIFO (paper: 4096) *)
  link_length_km : float;
  broadcast_ignore_stop : bool;   (** the broadcast-deadlock fix (6.6.6) *)
  strict_fifo_scheduler : bool;
      (** ablation A2: strict FCFS instead of first-come first-considered *)
}
(** The rest is fixed: the FIFO's stop threshold at half full (the
    paper's f = 0.5), a flow-control slot every
    {!Autonet_net.Command.flow_control_period} (256) slots, a scheduling
    pass every 6 slots, {!port_pipeline_slots}, and a run declared
    deadlocked after 8192 slots without progress while packets are in
    flight. *)

val default_config : config

val port_pipeline_slots : int
(** Fixed receive-path pipeline per port, 18 slots (TAXI decode, sync,
    elastic buffering): with the router and FIFO stages this yields the
    paper's 26-32 cycle switch transit. *)

type t

val create : ?config:config -> Graph.t -> Tables.spec list -> t
(** Tables are loaded into each switch's hardware forwarding table. *)

val config : t -> config

type packet_id = int

val inject :
  t -> from:Graph.endpoint -> dst:Short_address.t -> bytes:int -> packet_id
(** Queue a packet for transmission at the given host port.  [bytes] is the
    on-the-wire size (header + body + trailer); the host transmits queued
    packets back to back, obeying the switch's flow control. *)

val set_source :
  t -> Graph.endpoint -> (slot:int -> (Short_address.t * int) option) -> unit
(** Attach a traffic source: polled whenever the host port is idle; return
    [(dst, bytes)] to start another packet. *)

val set_host_buffer :
  t -> Graph.endpoint -> capacity_bytes:int -> drain_bytes_per_slot:float -> unit
(** Model a slow host (paper 6.2): the controller buffers up to
    [capacity_bytes] of arriving payload and the host consumes it at
    [drain_bytes_per_slot] (1.0 = link rate).  When the buffer is full the
    controller discards arriving packets — and because host controllers
    may never send [stop], the loss stays at the host instead of backing
    congestion into the network.  Hosts default to infinitely fast. *)

val host_dropped : t -> int
(** Packets discarded by overloaded host controllers. *)

val set_reflector : t -> Graph.endpoint -> bool -> unit
(** Model an unterminated (reflecting) cable at a host port, the paper's
    broadcast-storm hazard (section 7): every packet delivered to this
    port is retransmitted verbatim back into the network. *)

val run : t -> slots:int -> unit
(** Advance the simulation.  Stops early if a deadlock is detected. *)

val now_slot : t -> int

val deadlocked : t -> bool

type delivery = {
  packet : packet_id;
  src : Graph.endpoint;
  dst_addr : Short_address.t;
  at : Graph.endpoint;   (** delivering switch port (port 0 = control) *)
  injected_slot : int;
  delivered_slot : int;  (** slot at which the packet's end mark arrived *)
  bytes : int;
}

val deliveries : t -> delivery list
(** In delivery order. *)

val in_flight : t -> int
(** Packets injected (or mid-transmission) but not yet fully delivered or
    discarded. *)

val discarded : t -> int

val fifo_high_water : t -> Graph.switch -> port:Graph.port -> int
val fifo_overflowed : t -> Graph.switch -> port:Graph.port -> bool

val channel_busy_slots : t -> Graph.link_id -> int * int
(** Slots that carried packet payload in each direction (a -> b, b -> a):
    the utilization measure behind the aggregate-bandwidth experiment. *)

val latency_slots : delivery -> int
