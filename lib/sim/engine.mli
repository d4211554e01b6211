(** Discrete-event simulation engine.

    The engine holds a virtual clock and a priority queue of pending events.
    Running the engine repeatedly pops the earliest event, advances the
    clock to its timestamp and executes its callback; callbacks schedule
    further events.  Two events at the same instant fire in the order they
    were scheduled, making every run deterministic. *)

type t

val create : unit -> t

val now : t -> Time.t
(** Current virtual time. *)

type handle
(** Identifies a scheduled event so it can be cancelled. *)

val schedule : t -> delay:Time.t -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t + delay].  [delay] must be
    non-negative. *)

val schedule_at : t -> time:Time.t -> (unit -> unit) -> handle
(** [schedule_at t ~time f] runs [f] at absolute [time], which must not be
    in the virtual past. *)

val every : t -> period:Time.t -> (unit -> unit) -> handle
(** [every t ~period f] runs [f] at [now t + period], then every [period],
    until the handle is {!cancel}led — from anywhere, [f] included.  After
    each run of [f] the same handle is queued again under the next
    sequence number, as a loop in which [f] schedules its own successor
    last would do, so same-instant events fire in the same order and
    {!events_executed}, {!pending}, {!queue_length} and
    {!max_queue_length} read the same, inside [f] too.  A firing
    allocates nothing.  [period] must be positive. *)

val cancel : handle -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op. *)

val cancelled : handle -> bool
(** The handle will not fire again: it was cancelled, or it was a
    one-shot event that fired. *)

val step : t -> bool
(** Execute the next pending event.  Returns [false] when the queue is
    empty. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Run events until the queue drains, the clock would pass [until], or
    [max_events] events have been executed.  Events scheduled exactly at
    [until] do fire.  With [until] the clock always ends at [until] when
    no later event stops it — idle simulated time passes even on an
    empty queue, so sim-time deadlines polled around [run] still fire on
    a dead network.  [until] must not be in the virtual past: the clock
    never moves backwards, and an earlier [until] raises
    [Invalid_argument] as {!schedule_at} does. *)

val pending : t -> int
(** Number of live (non-cancelled) events still queued. *)

val queue_length : t -> int
(** Raw queue size, including cancelled events awaiting their lazy
    removal at the head.  [queue_length t - pending t] is the cancelled
    backlog; chaos-campaign diagnostics watch both for handle leaks. *)

val max_queue_length : t -> int
(** High-water mark of {!queue_length} over the run; the telemetry
    snapshot exports it as a gauge. *)

val events_executed : t -> int
