(* A fixed-size pool of OCaml 5 domains with a start/finish barrier.

   The pool exists to parallelize the configuration pipeline's pure,
   per-switch computations (forwarding-table synthesis, channel-dependency
   edge generation).  Workers are spawned once at [create] and parked on a
   condition variable between jobs, so a round costs two lock round-trips
   per worker rather than a domain spawn (~30 us vs ~1 ms).

   Work is handed out by one rule: a call's index range is cut into
   contiguous batches of near-equal size, at most [batches_per_domain]
   per domain, and idle domains claim whole batches off one atomic
   cursor.  Batches —
   not items — are the unit of scheduling, so a fan-out of hundreds of
   switches costs a handful of cache-line bounces instead of one per item.

   Determinism: the assignment of batches to domains is dynamic, but every
   combinator writes results into caller-indexed slots, so outputs are
   bit-identical at any domain count or interleaving.  A pool of one
   domain degenerates to a plain loop on the calling domain with no
   locking at all; {!serial} is such a pool. *)

module Metrics = Autonet_telemetry.Metrics

let batches_per_domain = 4

type t = {
  n_domains : int;
  mutex : Mutex.t;
  start : Condition.t;
  finished : Condition.t;
  mutable job : (int -> unit) option; (* the body workers run this round *)
  mutable round : int;                (* bumped once per round *)
  mutable pending : int;              (* workers still inside the round *)
  mutable failure : exn option;       (* first worker exception, if any *)
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
  busy : bool Atomic.t;               (* a call owns the pool *)
  (* One registry per worker index: each is written by at most one domain
     at a time, and {!metrics_snapshot} merges them into one deterministic
     view.  Only the call that owns the pool (wins the [busy] flag)
     counts anything — nested/concurrent calls run uncounted at every
     domain count, including one — so the merged totals are identical
     for any domain count. *)
  regs : Metrics.t array;
  c_calls : Metrics.counter;    (* top-level combinator calls; regs.(0) *)
  c_items : Metrics.counter;    (* items those calls covered; regs.(0) *)
  h_round : Metrics.histogram;  (* items per call; regs.(0) *)
  c_worker_items : Metrics.counter array; (* items run by worker i *)
  (* Scheduling diagnostics live in their own per-worker registries:
     batch counts depend on the domain count by construction, so they
     must stay out of {!metrics_snapshot}'s any-domain-count identity.
     {!sched_snapshot} merges them separately. *)
  sched_regs : Metrics.t array;
  c_worker_batches : Metrics.counter array; (* batches claimed by worker i *)
  c_worker_steals : Metrics.counter array;  (* claimed off another's share *)
}

let domains t = t.n_domains

(* Worker [i] (1 <= i < n_domains): wait for a new round, run the job with
   our worker index, report completion, repeat until [shutdown]. *)
let worker t i =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    while (not t.stopped) && t.round = !seen do
      Condition.wait t.start t.mutex
    done;
    if t.stopped then begin
      Mutex.unlock t.mutex;
      running := false
    end
    else begin
      seen := t.round;
      let job = match t.job with Some f -> f | None -> fun _ -> () in
      Mutex.unlock t.mutex;
      let result = match job i with () -> None | exception e -> Some e in
      Mutex.lock t.mutex;
      (match result with
      | Some e when t.failure = None -> t.failure <- Some e
      | Some _ | None -> ());
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.broadcast t.finished;
      Mutex.unlock t.mutex
    end
  done

let max_domains = 64

let env_domains () =
  match Sys.getenv_opt "AUTONET_DOMAINS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some d when d >= 1 -> Some (Stdlib.min d max_domains)
    | Some _ | None -> None)

let shutdown t =
  if t.n_domains > 1 then begin
    Mutex.lock t.mutex;
    if t.stopped then Mutex.unlock t.mutex
    else begin
      t.stopped <- true;
      Condition.broadcast t.start;
      Mutex.unlock t.mutex;
      List.iter Domain.join t.workers;
      t.workers <- []
    end
  end

let create ?domains () =
  let d =
    match domains with
    | Some d -> d
    | None -> (
      match env_domains () with
      | Some d -> d
      | None -> Domain.recommended_domain_count ())
  in
  let d = Stdlib.max 1 (Stdlib.min d max_domains) in
  let regs = Array.init d (fun _ -> Metrics.create ()) in
  let sched_regs = Array.init d (fun _ -> Metrics.create ()) in
  let t =
    { n_domains = d;
      mutex = Mutex.create ();
      start = Condition.create ();
      finished = Condition.create ();
      job = None;
      round = 0;
      pending = 0;
      failure = None;
      stopped = false;
      workers = [];
      busy = Atomic.make false;
      regs;
      c_calls = Metrics.counter regs.(0) "pool.calls";
      c_items = Metrics.counter regs.(0) "pool.items";
      h_round =
        Metrics.histogram regs.(0) "pool.items_per_call"
          ~bounds:[| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 4096 |];
      c_worker_items =
        Array.map (fun r -> Metrics.counter r "pool.worker_items") regs;
      sched_regs;
      c_worker_batches =
        Array.map (fun r -> Metrics.counter r "pool.worker_batches") sched_regs;
      c_worker_steals =
        Array.map (fun r -> Metrics.counter r "pool.worker_steals") sched_regs }
  in
  if d > 1 then begin
    t.workers <-
      List.init (d - 1) (fun i -> Domain.spawn (fun () -> worker t (i + 1)));
    (* Parked workers must not keep the process alive past the main
       domain's exit. *)
    at_exit (fun () -> shutdown t)
  end;
  t

let serial = create ~domains:1 ()

(* Executing the job for every worker index on the calling domain is
   semantically equivalent to a real round: the combinators hand out
   caller-indexed work, so which domain runs a given index never shows in
   the results.  This is how a nested or concurrent call runs. *)
let run_inline t f =
  for i = 0 to t.n_domains - 1 do
    f i
  done

(* A genuine barrier round; the caller must own the pool. *)
let run_round t f =
  Mutex.lock t.mutex;
  if t.stopped then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool: pool has been shut down"
  end;
  t.job <- Some f;
  t.failure <- None;
  t.pending <- t.n_domains - 1;
  t.round <- t.round + 1;
  Condition.broadcast t.start;
  Mutex.unlock t.mutex;
  (* The calling domain is worker 0. *)
  let mine = match f 0 with () -> None | exception e -> Some e in
  Mutex.lock t.mutex;
  while t.pending > 0 do
    Condition.wait t.finished t.mutex
  done;
  t.job <- None;
  let fail = match mine with Some _ -> mine | None -> t.failure in
  t.failure <- None;
  Mutex.unlock t.mutex;
  match fail with Some e -> raise e | None -> ()

(* Run batch [lo .. hi] on worker [w], counting it if the call owns the
   pool.  Worker [w]'s registries are written by one domain at a time
   (inline execution walks the indices serially), so this is race-free,
   and the merged worker-item totals sum to the item count whatever the
   batching. *)
let run_batch t ~owner ~w ~steal lo hi f =
  if owner then begin
    Metrics.add t.c_worker_items.(w) (hi - lo + 1);
    Metrics.incr t.c_worker_batches.(w);
    if steal then Metrics.incr t.c_worker_steals.(w)
  end;
  for i = lo to hi do
    f i
  done

(* Run [f 0 .. f (n-1)], [n >= 1].  A one-domain pool, or a one-item
   call, runs one batch on the caller.  Otherwise the range splits into
   [min n (batches_per_domain * domains)] contiguous batches whose sizes
   differ by at most one, claimed off one atomic cursor.  A "steal" is a
   batch claimed off another worker's share of the static assignment
   (batch [b] to worker [b * domains / n_batches]): the load-imbalance
   signal. *)
let dispatch t ~owner ~n f =
  if t.n_domains = 1 || n = 1 then
    run_batch t ~owner ~w:0 ~steal:false 0 (n - 1) f
  else begin
    let n_batches = Stdlib.min n (batches_per_domain * t.n_domains) in
    let next = Atomic.make 0 in
    let rec body w =
      let b = Atomic.fetch_and_add next 1 in
      if b < n_batches then begin
        run_batch t ~owner ~w
          ~steal:(b * t.n_domains / n_batches <> w)
          (n * b / n_batches)
          ((n * (b + 1) / n_batches) - 1)
          f;
        body w
      end
    in
    if owner then run_round t body else run_inline t body
  end

(* Run [k] as one combinator call over [n] items.  The call that takes
   the [busy] flag owns the pool and is counted; a failed acquisition
   means re-entrant or concurrent use — a job body (possibly on a worker
   domain) started another pool operation, e.g. a simulation running
   inside a chaos-campaign worker reaches the configuration pipeline's
   own entry points.  Waking the parked workers again would corrupt the
   round bookkeeping, so such a call runs inline, uncounted, and
   bit-identical by construction.  One-domain pools take the flag too,
   so the counted-once semantics match every domain count. *)
let with_call t ~n k =
  let owner = Atomic.compare_and_set t.busy false true in
  Fun.protect
    ~finally:(fun () -> if owner then Atomic.set t.busy false)
    (fun () ->
      if owner then begin
        Metrics.incr t.c_calls;
        Metrics.add t.c_items n;
        Metrics.observe t.h_round n
      end;
      k owner)

let parallel_for t ~n f =
  if n > 0 then with_call t ~n (fun owner -> dispatch t ~owner ~n f)

let parallel_map_array t f a =
  let n = Array.length a in
  if n = 0 then [||]
  else
    with_call t ~n (fun owner ->
        (* The caller computes element 0 to seed the output array, and
           workers write every other result straight into its slot — no
           option boxing, no reassembly pass.  Index 0 still belongs to
           the first batch, which skips it, so the accounting is
           [parallel_for]'s. *)
        let out = Array.make n (f a.(0)) in
        dispatch t ~owner ~n (fun i -> if i > 0 then out.(i) <- f a.(i));
        out)

(* The process-wide pool the pipeline entry points share, sized by
   AUTONET_DOMAINS (or the machine).  Created on first use so that
   programs that never touch the parallel path spawn no domains. *)
let default_pool : t option ref = ref None

let default () =
  match !default_pool with
  | Some p -> p
  | None ->
    let p = create () in
    default_pool := Some p;
    p

(* --- Telemetry --- *)

let set_metrics_enabled t v =
  Array.iter (fun r -> Metrics.set_enabled r v) t.regs;
  Array.iter (fun r -> Metrics.set_enabled r v) t.sched_regs

let metrics_enabled t = Metrics.enabled t.regs.(0)

let metrics_snapshot t =
  Metrics.merge (Array.to_list (Array.map Metrics.snapshot t.regs))

let sched_snapshot t =
  Metrics.merge (Array.to_list (Array.map Metrics.snapshot t.sched_regs))
