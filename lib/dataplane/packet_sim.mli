(** Packet-level data-plane simulator.

    A virtual-cut-through approximation for throughput and latency studies
    on networks too large (or windows too long) for the slot-level
    simulator: links are servers occupied for a packet's full serialization
    time, switches add the hardware's cut-through latency, alternative
    forwarding ports are taken lowest-free-first and broadcasts wait for
    their whole port set, exactly as the scheduling engine would.  What it
    deliberately does not model is finite FIFOs and backpressure (so it
    cannot deadlock); use {!Flit_sim} for those questions.

    Tables are read through a callback on every hop, so the simulator can
    run against the live forwarding tables of an Autopilot network —
    packets launched during a reconfiguration hit cleared tables and are
    discarded, reproducing the paper's "host packets will be discarded
    during the reconfiguration process". *)

open Autonet_net
open Autonet_core

type config = {
  cut_through_ns : int;   (** per-switch latency (paper: ~2.2 us best case) *)
  link_length_km : float;
  host_rx_ns : int;       (** controller receive pipeline *)
}

val default_config : config

type t

val create :
  ?config:config ->
  engine:Autonet_sim.Engine.t ->
  Graph.t ->
  tables:(Graph.switch -> Autonet_switch.Forwarding_table.t) ->
  t

val send : t -> from:Graph.endpoint -> Packet.t -> unit
(** Queue a packet at a host port; it transmits when the host's link is
    free. *)

val set_host_rx : t -> Graph.endpoint -> (Packet.t -> unit) -> unit
(** Called on each packet delivered to the host port. *)

val set_control_rx : t -> Graph.switch -> (Packet.t -> unit) -> unit
(** Called on packets delivered to a control processor via the data path. *)

type delivery = {
  src : Graph.endpoint;
  at : Graph.endpoint;
  sent_at : Autonet_sim.Time.t;
  delivered_at : Autonet_sim.Time.t;
  bytes : int;
}

val deliveries : t -> delivery list

val sent_count : t -> int
val delivered_count : t -> int
val discarded_count : t -> int

val reset_stats : t -> unit
(** Clear delivery records and counters (e.g. after a warm-up phase).
    Busy-until state is preserved. *)

val latency : delivery -> Autonet_sim.Time.t
