(** Growable min-priority queue keyed by time, first in first out within
    a time.

    Values leave in (time, insertion) order: two values queued for the
    same instant leave in the order they were added, which keeps
    simulations deterministic regardless of the queue's internals.

    The values of one instant wait in a run, a FIFO, and a binary heap
    orders the runs, so a {!take} that leaves its run non-empty is O(1)
    and only opening or emptying a run sifts.  An add finds the newest
    run of its time through a small direct-mapped index of fixed size;
    when the index has lost it (another time took the slot) the add opens
    a new run, which costs a heap entry but never the order.  Cells and
    runs live in [int] arrays recycled through free lists, so neither
    {!add} (below a capacity doubling) nor any read or {!take}
    allocates. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> time:Time.t -> 'a -> unit
(** Queue a value behind every value already queued for [time]. *)

val min_time : 'a t -> Time.t
(** Time key of the minimum element.  Raises [Invalid_argument] when the
    queue is empty. *)

val top : 'a t -> 'a
(** The minimum element, left in the queue.  Raises [Invalid_argument]
    when the queue is empty. *)

val take : 'a t -> 'a
(** Remove and return the minimum element.  Raises [Invalid_argument]
    when the queue is empty. *)

val runs_opened : 'a t -> int
(** Runs opened since {!create}: the adds that found no queued run of
    their time through the index.  A deterministic work counter: each
    run costs one heap insertion and, once it empties, one removal. *)
