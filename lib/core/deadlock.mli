(** Channel-dependency-graph deadlock analysis.

    With flow-controlled FIFOs and no packet discard, a routing function is
    deadlock-free iff its channel dependency graph is acyclic (Dally &
    Seitz).  Channels are the directed halves of each switch-to-switch
    link; channel [c1] depends on [c2] when some forwarding-table entry
    lets a packet that arrived over [c1] continue over [c2].  Host links
    never appear in cycles: hosts do not forward, and Autonet host
    controllers may not send [Stop], so a switch-to-host channel always
    drains.

    Up*/down* tables must always be acyclic (property-tested); the
    unrestricted shortest-path baseline is generally not, which is
    experiment E7. *)

type channel = {
  link : Graph.link_id;
  from_switch : Graph.switch;
  to_switch : Graph.switch;
}

val pp_channel : Format.formatter -> channel -> unit

type result =
  | Acyclic
  | Cycle of channel list
      (** A witness cycle: each channel depends on the next, and the last
          on the first. *)

val check_tables :
  ?pool:Autonet_parallel.Pool.t -> Graph.t -> Tables.spec list -> result
(** Analyze the dependencies induced by unicast (alternative-port) entries
    of the given forwarding tables.  Per-spec edge generation touches
    disjoint source channels, so it fans out one task per spec over
    [pool] (default {!Autonet_parallel.Pool.serial}); the merged
    dependency graph — and the cycle witness — is identical for any
    domain count.  The DFS is iterative, so dependency chains longer
    than the native stack are fine. *)

type cert
(** An acyclicity order certificate: a ranking of the member switches
    under which every dependency edge a legal up*/down* table generates
    strictly increases a per-channel key.  Built once per epoch from the
    spanning tree. *)

val certificate : Graph.t -> Spanning_tree.t -> cert

val certifies : cert -> Graph.t -> Updown.t -> Tables.spec -> bool
(** Whether every unicast dependency edge of [spec] strictly increases
    the certificate's channel key.  If this holds for every spec of an
    epoch, the dependency graph is acyclic ({!check_tables} would return
    [Acyclic]) — the one-sided check the delta path runs on just the
    rebuilt and patched tables, falling back to {!check_tables} on any
    failure.  Tables built by {!Tables.build} always certify; a [false]
    is possible for hand-made or corrupted specs and proves nothing by
    itself.  An edge's verdict depends only on its in-port and entry, so
    the check scans each distinct page of [spec] once
    ({!Tables.exists_entry}). *)

val pp_result : Format.formatter -> result -> unit
