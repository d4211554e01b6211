(** A full service LAN: the {!Network} control plane plus host controllers
    with failover drivers, LocalNet layers and a live packet-level data
    path.

    This is the integration the paper's section 7 describes operationally:
    hosts keep their UID caches warm while the switches reconfigure
    underneath them; packets launched mid-reconfiguration are discarded;
    drivers fail over to their alternate ports when their switch dies.
    One [host] is created per host controller in the topology (a
    dual-homed controller gets its two attachment points wired to one
    driver). *)

open Autonet_net

type host = {
  uid : Uid.t;
  driver : Autonet_host.Driver.t;
  localnet : Autonet_host.Localnet.t;
}

type t

val create :
  ?driver_timeouts:Autonet_host.Driver.timeouts -> Network.t -> t

val network : t -> Network.t
val packet_sim : t -> Autonet_dataplane.Packet_sim.t

val start : t -> unit
(** Boot the switches (if not already started) and all host drivers. *)

val hosts : t -> host list

val run_until_hosts_ready : ?timeout:Autonet_sim.Time.t -> t -> bool
(** Run until the network is converged and every powered host driver has a
    confirmed short address. *)

val send_datagram : t -> from:Uid.t -> Eth.t -> bool
(** Convenience: send through the named host's LocalNet. *)
