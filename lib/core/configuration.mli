(** One component's step-5 configuration (paper section 6.6.4): the
    spanning tree, up*/down* orientation, routes and address assignment
    that every member computes from the same complete topology.  It is
    the chaos oracle's reference and the pipeline the tools, experiments
    and tests configure a topology with; the epoch cache stages its own
    copy, routing only when a full step is needed. *)

type t = private {
  graph : Graph.t;
  tree : Spanning_tree.t;
  updown : Updown.t;
  routes : Routes.t;
  assignment : Address_assign.t;
}

val make : Graph.t -> proposals:(Graph.switch * int) list -> t
(** Switch 0's component, resolving the (switch, number) [proposals]. *)

val boot : Graph.t -> t
(** Switch 0's component, every member proposing number 1. *)

val of_report : Topology_report.t -> t
(** The report's graph and proposals.  Raises [Invalid_argument] unless
    the report describes one component. *)

val tables :
  ?mode:Tables.route_mode -> ?pool:Autonet_parallel.Pool.t -> t ->
  Tables.spec list
(** {!Tables.build_all}: every member's table, ascending by switch. *)
