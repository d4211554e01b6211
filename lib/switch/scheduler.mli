(** The first-come first-considered output-port scheduler (paper sections
    4.5 and 6.4).

    The engine holds at most one forwarding request per receive port
    (head-of-line blocking).  On each scheduling round a vector of free
    transmit ports sweeps the queue from the oldest request to the newest:

    - an {e alternative} request (broadcast flag 0) captures the
      lowest-numbered free port matching its vector and leaves the queue;
    - a {e simultaneous} request (broadcast flag 1) accumulates every free
      matching port, removes what it captured from the sweeping vector, and
      leaves the queue only when its whole vector has been captured.

    Older requests therefore have strictly first claim on ports — a
    broadcast request at the head of the queue is guaranteed to complete —
    while younger requests may be satisfied out of order when the ports
    they need are free ("queue jumping").  One request can be accepted and
    one round run every 480 ns in the real gate array; the dataplane
    simulator enforces that rate. *)

open Autonet_net

type grant = {
  in_port : int;
  out_ports : Port_vector.t;
  broadcast : bool;
}

type t

val create : unit -> t

val request :
  t -> in_port:int -> vector:Port_vector.t -> broadcast:bool -> bool
(** Enqueue a forwarding request for the packet at the head of [in_port]'s
    FIFO.  Returns [false] (and changes nothing) when the port already has
    a pending request — the hardware situation that cannot arise because of
    head-of-line blocking, kept explicit here for the monitors.  A request
    with an empty vector and [broadcast = true] is the discard entry: it is
    granted immediately with no ports. *)

val has_request : t -> in_port:int -> bool

val round : ?max_grants:int -> t -> free:Port_vector.t -> grant list
(** Run one sweep of the free vector over the queue; returns the satisfied
    requests in queue order (oldest first).  [max_grants] bounds how many
    requests complete in this pass (the real engine schedules one request
    per 480 ns); broadcast port capture still progresses for requests
    examined before the bound was hit. *)

val round_fcfs : ?max_grants:int -> t -> free:Port_vector.t -> grant list
(** Strict first-come first-served: the sweep stops at the first request
    that cannot be satisfied, so no younger request ever jumps the queue.
    The ablation comparison for the paper's FCFC design (section 6.4). *)

val cancel : t -> in_port:int -> unit
(** Remove the request from [in_port] (link-unit reset). *)

val pending : t -> int
val clear : t -> unit
