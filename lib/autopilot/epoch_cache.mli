(** Step 5 of an epoch, computed once per network.

    In the paper every switch recomputes the spanning tree, the up*/down*
    routes and its forwarding table from the flooded complete topology.
    Those are pure functions of the report (and, on the delta path, of
    the previous commit), so the simulated switches of one network share
    one cache: an {e entry} per distinct complete report (compared by
    identity first, then with {!Autonet_core.Topology_report.equal})
    holds the report's graph, tree and address assignment, computed once.
    The entry's report is the one value of it the network keeps: every
    switch that finishes with it holds that value, and a received
    [Complete] carrying its bytes decodes to it ({!reports}).  Each entry
    then computes at most once, for all its switches, either the full
    artifacts — every member's table on the domain pool, the deadlock
    verdict on them and the order certificate — or, once per previous
    entry, a {e plan}: the non-root {!Autonet_core.Delta.classify} and
    one root-shaped {!Autonet_core.Delta.apply}.

    A switch then only looks its report up: it takes its own table from
    the shared array, derives its own events and delta statistics as its
    own chain would have, and adopts the entry's one canonical commit as
    its next previous commit, so every switch of a component stays on one
    lineage and the next epoch needs one plan.  An entry dies when no
    switch's commit refers to it any more. *)

open Autonet_net
open Autonet_core

type t

val create : unit -> t
(** One per network, shared by all its switches. *)

type commit
(** A switch's reference to the entry it last adopted. *)

val release : t -> commit option -> unit
(** The switch forgets its commit (power-off); an entry nobody refers to
    any more is dropped. *)

type outcome = {
  report : Topology_report.t;
      (** the entry's report, [equal] to the one looked up: the value the
          switch keeps as its complete report *)
  number : int option;  (** this switch's number *)
  table : Tables.spec;
      (** the table to load; shared with the entry, never to be edited *)
  fallback : string option;
      (** why the delta path was refused, when it was tried *)
  delta : Delta.stats option;
      (** [Some]: this switch's own delta classification passed, with
          these statistics.  [None] does not mean [table] was built in
          full: a fallback or a first commit gets the entry's canonical
          tables, which a plan's apply may have built. *)
  verdict : (Deadlock.result * int) option;
      (** at the root: the deadlock verdict and the number of tables it
          covers *)
}

val finish :
  t ->
  Topology_report.t ->
  uid:Uid.t ->
  root:bool ->
  prev:commit option ->
  clock:(unit -> float) ->
  on_span:(string -> float -> unit) ->
  (outcome * commit option) option
(** [finish t report ~uid ~root ~prev ~clock ~on_span] is switch [uid]'s
    step 5 on the complete [report]; [root] says whether the switch
    believes itself the epoch's root and [prev] is its last commit.  The
    outcome equals what the switch would compute alone from [prev]:
    with {!Delta.enabled} and a [prev], the delta path is tried and
    reported exactly as that switch's own classification and apply
    would, with the compute spans [delta_classify], [delta_routes],
    [delta_tables] and (at the tree root) [delta_deadlock] each measured
    on [clock] around this switch's share of the work; the switch that
    first needs a plan carries its whole cost in [delta_routes].  The
    root (by [root] on the full path, by the tree on the delta path, only
    when its own classification passed) gets a verdict.

    Returns [None], changing nothing, when [report] does not describe
    [uid].  Otherwise [prev] is released and the switch's new commit is
    returned — [None] for a report that does not form one component,
    which is computed for this switch alone as before and shared with
    nobody. *)

(** {1 Inspection} *)

type stats = {
  live : int;  (** entries some switch's commit refers to *)
  lookups : int;  (** {!finish} calls *)
  hits : int;
      (** lookups that found their entry with the tables they load
          already computed *)
  fulls : int;  (** full computations *)
  deltas : int;  (** plans applied *)
}

val stats : t -> stats

val tables : t -> Topology_report.t -> Tables.spec array option
(** The canonical tables of the live entry for this report, by switch. *)

val reports : t -> Topology_report.t list
(** The reports of the live entries, usually one to three: the
    candidates a received [Complete] is decoded against. *)
