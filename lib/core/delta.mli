(** Incremental reconfiguration: the delta fast path.

    Every fault used to pay a full epoch — whole-network spanning tree,
    every route BFS, every forwarding table, a full deadlock check.  The
    paper's headline metric is reconfiguration time, and for the common
    faults (a non-tree link dying or coming back, a leaf subtree severed
    or rejoining) almost all of that work recomputes state that cannot
    have changed.

    This module is the classification-and-reuse layer over the committed
    state of the previous epoch.  {!classify} compares the freshly
    computed spanning tree and address assignment of the new epoch
    against the committed ones and either proves the fault
    {e tree-preserving} — every surviving switch keeps its UID-aligned
    tree level, parent and switch number — or reports it structural.
    For tree-preserving faults {!apply} then reuses everything the proof
    covers and recomputes only the affected pieces: touched links are
    re-oriented through {!Updown.reorient}, per-destination route BFSes
    re-run only when unseated ({!Routes.recompute}), tables are rebuilt
    only for switches whose minimal next-hop sets actually changed
    (cost-weighted over the domain pool at the root), and deadlock
    freedom is re-verified incrementally through the
    {!Deadlock.certificate} order argument with a mandatory fallback to
    the full {!Deadlock.check_tables}.

    Correctness never depends on the classifier being clever, only
    sound: the tree and assignment are always recomputed from scratch on
    the new graph (they are microseconds against the hundreds of
    milliseconds of table synthesis), any mismatch at all is declared
    structural, and a structural verdict sends the caller down the
    unchanged full-epoch path.

    In the paper every switch runs this step on its own copy of the
    complete report.  Its answers are pure functions of the report and
    the previous commit, so the simulator asks once:
    [Autonet_autopilot.Epoch_cache] runs one non-root {!classify} and
    one root-shaped {!apply} per previous commit, and derives each
    non-root switch's own answer with {!non_root_stats}. *)

type committed = {
  c_graph : Graph.t;          (** the epoch's report graph *)
  c_tree : Spanning_tree.t;
  c_updown : Updown.t;
  c_routes : Routes.t;
  c_assignment : Address_assign.t;
  c_own : Tables.spec;        (** the committing switch's own table *)
  c_all : Tables.spec array option;
      (** every member's table, indexed by switch — kept by the root
          (which builds them anyway to verify the epoch), [None]
          elsewhere *)
  c_cert : Deadlock.cert option;
      (** root only: the epoch's order certificate, present iff every
          committed table certified under it *)
}
(** Everything a later epoch may reuse, committed at the end of an
    epoch by {!commit_full} (full path) or {!apply} (delta path). *)

type change = {
  old_of_new : int array;
      (** previous switch index of new switch [s], or -1 *)
  new_of_old : int array;  (** inverse of [old_of_new] *)
  link_of_old : int array;
      (** previous id of new link [l] (aligned on (UID, port) endpoint
          pairs), or -1 for a fresh link *)
  forced_dirty : bool array;
      (** switches that must rebuild regardless of route changes:
          endpoints of changed links, host-port changes *)
  added_switches : Graph.switch list;  (** new indices, ascending *)
  removed_numbers : int list;
      (** switch numbers that left with removed switches, ascending *)
  changed_links : int;  (** links added plus links removed *)
}

type classification = Tree_preserving of change | Structural of string

val enabled : unit -> bool
(** The [AUTONET_DELTA] knob: on unless the variable is set to [0],
    [false], [off] or [no].  Read per call so tests can toggle it. *)

val classify :
  prev:committed ->
  graph:Graph.t -> tree:Spanning_tree.t -> assignment:Address_assign.t ->
  me:Graph.switch ->
  classification
(** Decide whether the new epoch ([graph], with its freshly computed
    [tree] and [assignment], seen from switch [me]) is a tree-preserving
    change of [prev].  [Structural] carries the first reason found and
    obliges the caller to run the full epoch. *)

type stats = {
  st_rebuilt : int;   (** tables rebuilt from scratch *)
  st_patched : int;   (** tables membership-patched via {!Tables.patch} *)
  st_reused : int;    (** tables reused verbatim *)
  st_dests : int;     (** destinations whose route BFS re-ran *)
  st_deadlock_full : bool;
      (** the incremental certificate failed and the full
          {!Deadlock.check_tables} ran instead *)
  st_verdict : Deadlock.result option;  (** root only *)
  st_dirty : bool array;
      (** per switch of the new graph: its table was rebuilt from scratch
          (not patched or reused) *)
}

val apply :
  ?pool:Autonet_parallel.Pool.t ->
  ?clock:(unit -> float) ->
  ?on_span:(string -> float -> unit) ->
  prev:committed ->
  graph:Graph.t -> tree:Spanning_tree.t -> assignment:Address_assign.t ->
  me:Graph.switch ->
  change ->
  committed * stats
(** Run the delta epoch described by a {!Tree_preserving} change.  The
    returned [committed] is observationally identical — same routes,
    same table contents, same root deadlock verdict — to what the full
    path would commit for this epoch; the chaos oracle and the fast-path
    property tests enforce exactly that.  [pool] fans the table rebuilds
    (and a fallback deadlock check) across domains at the root.  [clock]
    and [on_span] report wall-clock sub-phase durations
    ([delta_routes], [delta_tables], [delta_deadlock]) without making
    this library depend on [unix].

    With a [prev] that holds every table ([c_all]) the run is
    {e root-shaped}: it rebuilds, patches or reuses every member's table
    and verifies the set.  A [prev] without a certificate ([c_cert]) is
    accepted there too; then every table is re-certified before the
    result claims one. *)

val non_root_stats : change -> stats -> Graph.switch -> stats
(** [non_root_stats ch st me]: what {!apply} of [ch] reports for switch
    [me] when its [prev] holds only its own table, read off the stats
    [st] of a root-shaped {!apply} of the same change: one table,
    rebuilt, patched or reused as [st.st_dirty] and the membership change
    decide, the same [st_dests], and no deadlock verdict. *)

val commit_full :
  graph:Graph.t -> tree:Spanning_tree.t -> updown:Updown.t ->
  routes:Routes.t -> assignment:Address_assign.t ->
  own:Tables.spec -> all:Tables.spec list option ->
  committed
(** Package a full epoch's results for reuse by later delta epochs.
    [all] is the root's [build_all] output ([None] elsewhere); the root
    additionally computes the epoch's order certificate here, which is
    what lets the next delta epoch verify deadlock freedom
    incrementally. *)
