(** The LocalNet UID cache (paper section 6.8.1).

    Maps destination UIDs to Autonet short addresses.  Entries are learned
    from the source fields of every arriving packet; an entry that has not
    been confirmed recently triggers a directed ARP on use, and falls back
    to the broadcast short address if the ARP goes unanswered.  The
    freshness window is the paper's two seconds.

    The cache also records which {e network} a UID lives on, which is what
    the Autonet-to-Ethernet bridge uses to decide whether to forward
    (section 6.8.2). *)

open Autonet_net

type network = Autonet | Ethernet

type entry = {
  address : Short_address.t;  (** broadcast when unknown *)
  network : network;
  updated_at : Autonet_sim.Time.t;
}

type t

val create : unit -> t

val freshness_window : Autonet_sim.Time.t
(** The paper's two seconds. *)

val learn :
  ?network:network ->
  t -> uid:Uid.t -> address:Short_address.t ->
  now:Autonet_sim.Time.t -> unit
(** Record the (source UID, source short address) correspondence observed
    in an arriving packet. *)

val find : t -> Uid.t -> entry option

val lookup_for_send :
  t -> Uid.t -> now:Autonet_sim.Time.t -> Short_address.t * [ `Fresh | `Stale ]
(** The address to put in an outgoing packet.  A missing entry is created
    pointing at the broadcast short address (equivalent to sending
    broadcast and learning from the response).  [`Stale] means the entry
    was not updated within the freshness window before this use: the
    caller should send a directed ARP and, if nothing updates the entry
    within the window, call {!expire}. *)

val updated_since : t -> Uid.t -> Autonet_sim.Time.t -> bool
(** Whether the entry was refreshed after the given instant (the "updated
    in the two seconds following its use" check). *)

val expire : t -> Uid.t -> unit
(** Reset the entry's address to broadcast ("equivalent to removing the
    entry"). *)

val network_of : t -> Uid.t -> network option

val size : t -> int
val entries : t -> (Uid.t * entry) list
(** Ascending by UID. *)
