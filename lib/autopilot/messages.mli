(** Control-protocol messages and their wire codecs.

    All switch-to-switch control traffic travels as real Autonet packets
    (type 2 for reconfiguration, type 3 for SRP, type 4 for connectivity):
    the body encodings below determine the packet sizes that the
    control-plane simulator charges against the 100 Mbit/s links, so the
    cost of shipping a growing topology report up the spanning tree is
    accounted exactly as the hardware would pay it. *)

open Autonet_net
open Autonet_core

type srp_request =
  | Get_state
  | Get_log of { max_entries : int }
  | Get_topology

type srp_response =
  | State of {
      uid : Uid.t;
      epoch : Epoch.t;
      configured : bool;
      port_states : (int * Port_state.t) list;
    }
  | Log_entries of (int * string) list  (** (local timestamp ns, message) *)
  | Topology of Topology_report.t
  | No_data

type t =
  | Tree_position of {
      epoch : Epoch.t;
      seq : int;
      position : Spanning_tree.Position.t;
    }
  | Tree_ack of { epoch : Epoch.t; seq : int; now_my_parent : bool }
  | Stable_report of { epoch : Epoch.t; seq : int; report : Topology_report.t }
  | Unstable_notice of { epoch : Epoch.t; seq : int }
      (** retracts a previously sent stable report: the subtree below the
          sender is in flux again, so the parent must not count it stable *)
  | Report_ack of { epoch : Epoch.t; seq : int }
  | Complete of { epoch : Epoch.t; seq : int; report : Topology_report.t }
  | Complete_ack of { epoch : Epoch.t; seq : int }
  | Conn_test of {
      token : int;
      src_uid : Uid.t;
      src_port : int;
      sw_version : int;
          (** the sender's Autopilot version: probes run forever, so a new
              release reaches even a neighbour whose one-shot offer was
              destroyed by a table-reset window *)
    }
  | Conn_reply of {
      token : int;
      orig_uid : Uid.t;
      orig_port : int;
      responder_uid : Uid.t;
      responder_port : int;
      sw_version : int;
    }
  | Host_query of { token : int; host_uid : Uid.t }
  | Host_addr of { token : int; address : Short_address.t }
  | Version_offer of { version : int }
      (** Autopilot software propagation (paper 5.4): a switch running a
          newer version offers it to a neighbour, which boots it and
          passes it on. *)
  | Srp_request of {
      route : int list;        (** outbound ports still to traverse *)
      reply_route : int list;  (** ports back to the origin, newest first *)
      request : srp_request;
    }
  | Srp_response of { route : int list; response : srp_response }

val packet_type : t -> Packet.typ

val encode : t -> string
(** A [Complete] or [Stable_report] is its 13-byte header (tag, epoch,
    sequence number) followed by its report's memoized
    {!Topology_report.wire} bytes, written into one string of exactly
    that size: sending a report copies its bytes once. *)

val decode : ?epochs:Epoch_cache.t -> string -> t
(** Raises {!Wire.Malformed} or {!Wire.Truncated} on bad input.  A
    [Complete] whose report bytes equal those of a live report of
    [epochs] (the receiving network's cache) decodes to that report
    itself; the result is [equal] either way. *)

val to_packet : ?trace:Packet.trace -> t -> Packet.t
(** Wrap as a one-hop Autonet packet (control protocols address hop by
    hop; the fabric routes by port, the addresses are for fidelity of
    size and of the header format).  [trace] is the sideband causal
    context — attached to reconfiguration messages when causal tracing
    is wired up; it never affects the wire encoding. *)

val of_packet : ?epochs:Epoch_cache.t -> Packet.t -> t
(** {!decode} of the packet body. *)

val wire_size : t -> int
(** Bytes on the link for the full packet. *)

val epoch_of : t -> Epoch.t option
(** The epoch tag, for the reconfiguration messages. *)

val pp : Format.formatter -> t -> unit
