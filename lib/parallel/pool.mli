(** A fixed-size OCaml 5 domain pool for the configuration kernels and
    the chaos campaigns.

    Workers are spawned once at {!create} and parked between jobs.  Both
    combinators hand out work by one rule: the index range of a call is
    cut into contiguous batches of near-equal size, at most 4 per domain
    (and never more than there are items), and idle domains claim whole
    batches off one atomic cursor.  A one-domain pool, or a one-item
    call, runs the whole range as one batch on the calling domain with
    no locking — the serial degenerate case the simulator's determinism
    relies on.  Every result is written into caller-indexed slots, so
    outputs are {e bit-identical} whatever the domain count or
    scheduling.

    Work closures must only read shared data (or write disjoint,
    caller-indexed slots): the pool adds no synchronization around the
    user's data.  Lazily-built caches (e.g. {!Graph.iter_neighbors}'s
    adjacency snapshot) must be forced before fanning out.  The pool
    keeps no scratch for its callers: a kernel allocates its working
    arrays per call or per task. *)

type t

val create : ?domains:int -> unit -> t
(** [create ?domains ()] spawns [domains - 1] worker domains (the
    calling domain is the pool's worker 0).  When [domains] is omitted it
    comes from the [AUTONET_DOMAINS] environment variable, falling back
    to [Domain.recommended_domain_count ()].  The count is clamped to
    [1 .. 64]. *)

val serial : t
(** A shared one-domain pool: the kernels' default when no pool is
    given.  It spawns nothing and its metrics stay off — it is shared by
    every domain of the process, so never enable them. *)

val domains : t -> int
(** Total domain count, including the calling domain. *)

val parallel_for : t -> n:int -> (int -> unit) -> unit
(** [parallel_for t ~n f] runs [f i] for [0 <= i < n] across the pool's
    domains.  Iterations must be independent (pure, or writing disjoint
    caller-indexed slots).

    Nested and concurrent use is safe: a call issued while another is in
    flight — e.g. from inside a job body, or from another domain while
    the pool is busy — runs all its batches on the calling domain,
    uncounted.

    A failure in any iteration propagates to the caller after the round
    barrier (the caller's own exception wins when several fail); the
    pool remains usable afterwards.  Note that iterations of other
    batches may still run after one raises — they must not depend on a
    failed iteration's effects. *)

val parallel_map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map_array t f a] is [Array.map f a] computed across the
    pool, results in input order.  The caller computes element 0 to seed
    the output array, and workers write every other result directly into
    its slot — batch ranges {e are} the output slices, there is no
    intermediate collection or reassembly pass.  Batching, failure and
    nesting are as for {!parallel_for}. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent; the pool cannot be
    used afterwards.  Pools also shut themselves down at process exit. *)

val default : unit -> t
(** The process-wide shared pool, created on first use with [create ()]
    (honouring [AUTONET_DOMAINS]): the pool of a campaign given none
    ([Chaos.run_campaign], [Fuzz.run]), of [autonet-topo check] and of
    the experiments' pure pipeline.  A simulated network never takes it:
    its step 5 runs on the domain that steps it. *)

(** {1 Telemetry}

    Each worker index owns a private {!Autonet_telemetry.Metrics}
    registry, so counting never synchronizes; {!metrics_snapshot} merges
    them.  Only top-level combinator calls (the caller that wins the
    pool's busy flag) are counted — nested and concurrent calls run
    uncounted on every path — so the merged totals are identical for any
    domain count:

    - ["pool.calls"]: top-level [parallel_for]/[parallel_map_array] calls;
    - ["pool.items"]: total items those calls covered;
    - ["pool.items_per_call"]: histogram of the per-call item count;
    - ["pool.worker_items"]: items executed by each worker (merged: the
      same total as ["pool.items"]; per-registry: the load balance).

    Scheduling diagnostics are kept in a {e separate} registry set,
    merged by {!sched_snapshot}, because batch counts depend on the
    domain count and must not break {!metrics_snapshot}'s
    any-domain-count identity:

    - ["pool.worker_batches"]: batches claimed by each worker;
    - ["pool.worker_steals"]: batches a worker claimed off another
      worker's share of the static balanced assignment — the
      load-imbalance signal (0 when every domain drains exactly its own
      share). *)

val set_metrics_enabled : t -> bool -> unit
(** Metrics are disabled at creation (instruments cost a load and a
    branch).  Covers both registry sets. *)

val metrics_enabled : t -> bool

val metrics_snapshot : t -> Autonet_telemetry.Metrics.snapshot
(** The per-worker registries merged; deterministic for a deterministic
    workload, whatever the domain count. *)

val sched_snapshot : t -> Autonet_telemetry.Metrics.snapshot
(** The per-worker scheduling registries merged.  Deterministic for a
    deterministic workload {e at a fixed domain count}; totals vary with
    it. *)
