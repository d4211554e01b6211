(** Legal up*/down* routes (paper section 6.6.4).

    A legal route traverses zero or more links in the "up" direction
    followed by zero or more in the "down" direction.  Routing state is the
    pair (switch, phase): a packet that has not yet moved down is in the
    [Up] phase and may take any link; once it moves down it is in the
    [Down] phase and may only continue down.  The phase at a switch is
    fully determined by the port the packet arrived on, which is why the
    hardware forwarding table can enforce the rule locally.

    [compute] runs one backward breadth-first search per destination switch
    over the (switch, phase) state graph, yielding for every state the
    minimal remaining hop count; the current Autopilot fills forwarding
    tables with exactly the minimal-length legal routes, and so do we. *)

type phase = Up | Down

type t

val compute : Graph.t -> Spanning_tree.t -> Updown.t -> t
(** Flat-array fast path: the legal-move relation is built once in CSR
    form from {!Graph.iter_neighbors} and {!Updown.up_end_i}, transposed
    into a predecessor CSR, and the per-destination BFSes run over int
    arrays with one shared scratch queue — no per-edge list allocation. *)

val recompute :
  Graph.t -> Spanning_tree.t -> Updown.t ->
  prev:t -> old_of_new:int array ->
  t * bool array * int
(** Incremental variant of {!compute} for the delta reconfiguration path.
    [prev] is the previous epoch's routing and [old_of_new.(s)] the
    previous index of switch [s] (-1 if it had none).  The move CSR is
    rebuilt (it is cheap and exact), then each destination's backward BFS
    re-runs only when some move-relation edit unseats the old distance
    function as the BFS fixed point: an added move that improves on an
    old distance, or a deleted move that was the sole support of one.
    Unseated (and brand-new) destinations get a fresh BFS; all others
    reuse the previous distance array — shared physically when the switch
    indexing is unchanged, else remapped.

    Returns [(routes, dirty, recomputed)]: [routes] is observationally
    identical to a fresh {!compute}; [dirty.(s)] is true when some
    re-run destination's minimal next-hop set at [s] changed, i.e. when
    switch [s]'s forwarding table must be rebuilt (exact for switches
    whose own links did not change — the delta layer rebuilds endpoint
    switches regardless); [recomputed] counts the destinations whose BFS
    re-ran. *)

val phase_of_arrival : t -> at:Graph.switch -> in_port:Graph.port -> phase
(** Phase of a packet that arrived at [at] on [in_port].  Host ports and
    the control-processor port yield [Up] (the packet is entering the
    network); a link port yields [Up] when the inbound traversal moved
    toward the link's up end, [Down] otherwise.  Raises
    [Invalid_argument] for a port cabled to an excluded (loop) link. *)

val distance : t -> src:Graph.switch -> dst:Graph.switch -> int option
(** Minimal legal hop count from [src] (entering in [Up] phase) to [dst];
    [None] when unreachable (different component). *)

val distance_from : t -> src:Graph.switch -> phase:phase -> dst:Graph.switch -> int option

val next_hops :
  t -> at:Graph.switch -> phase:phase -> dst:Graph.switch ->
  (Graph.port * Graph.link_id) list
(** The out-ports lying on minimal legal routes toward [dst], ascending by
    port.  Empty when [at = dst], when [dst] is unreachable, or when no
    legal continuation exists from this phase. *)

val all_next_hops :
  t -> at:Graph.switch -> phase:phase -> dst:Graph.switch ->
  (Graph.port * Graph.link_id) list
(** Like {!next_hops} but admits every legal continuation that still makes
    progress possible (not only minimal-length ones); used by the A1
    ablation. *)

val legal_route : t -> Graph.t -> Updown.t -> Graph.switch list -> bool
(** Whether a switch path (adjacent switches) respects up*/down*.  Exposed
    for tests. *)
