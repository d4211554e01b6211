(** Fault-injection schedules.

    A schedule is pure data: a time-ordered list of component failures and
    repairs.  The [autonet] umbrella library applies schedules to a running
    simulation; keeping them as data makes experiments reproducible and
    easy to enumerate in EXPERIMENTS.md.  The [random] smart constructor is
    the chaos-campaign generator: seeded, state-aware and deterministic, so
    a failing campaign reproduces from its topology name and seed alone. *)

open Autonet_core

type event =
  | Link_down of Graph.link_id
  | Link_up of Graph.link_id
  | Switch_down of Graph.switch   (** power off: all its links go dead *)
  | Switch_up of Graph.switch

type item = { at : Autonet_sim.Time.t; event : event }

type schedule = item list

val sort : schedule -> schedule
(** Stable sort by time, with a total order on events breaking equal-time
    ties (constructor rank: link before switch, down before up; then the
    component id), so the applied order never depends on how the schedule
    was assembled. *)

val fail_and_repair :
  link:Graph.link_id -> fail_at:Autonet_sim.Time.t -> repair_at:Autonet_sim.Time.t ->
  schedule

val flapping_link :
  link:Graph.link_id -> start:Autonet_sim.Time.t -> period:Autonet_sim.Time.t ->
  cycles:int -> schedule
(** [cycles] down/up pairs: down at [start], up half a period later, and so
    on.  [period] must be at least 2 (a period of 1 would schedule the
    down and the up at the same instant). *)

val switch_crash : switch:Graph.switch -> at:Autonet_sim.Time.t -> schedule

val switch_reboot :
  switch:Graph.switch -> down_at:Autonet_sim.Time.t -> up_at:Autonet_sim.Time.t ->
  schedule
(** Power off at [down_at], back on at [up_at] (which must be later). *)

val partition :
  ?heal_at:Autonet_sim.Time.t ->
  Graph.t -> side:(Graph.switch -> bool) -> at:Autonet_sim.Time.t -> schedule
(** Fail every non-loop link whose endpoints straddle the [side] predicate
    at [at], splitting the network along the cut; with [heal_at] (which
    must be after [at]) every cut link is repaired again. *)

val random :
  rng:Autonet_sim.Rng.t -> graph:Graph.t -> horizon:Autonet_sim.Time.t ->
  events:int -> schedule
(** [random ~rng ~graph ~horizon ~events] draws [events] fault actions at
    uniform instants in [\[0, horizon)] and expands them into a schedule:
    link failures, repairs of previously failed links, switch crashes and
    reboots, short link flaps, and partitions (optionally healed) — so
    composite actions can make the schedule longer than [events] items.
    The generator tracks component state so repairs follow failures and at
    least one switch always stays powered (an all-dark network has no live
    component for the oracle to check).  Deterministic in [rng]'s seed. *)

(** {1 Validation}

    The invariants every schedule handed to the simulator (and every
    schedule the fuzzer's mutation operators emit) must satisfy. *)

val validate : ?graph:Graph.t -> schedule -> (unit, string) result
(** [Ok ()] iff the schedule is sorted per {!sort}'s order (time, then the
    deterministic event tiebreak), every time is non-negative
    and every component id is non-negative.  With [graph], link and switch
    ids must additionally exist in the graph.  The error names the first
    offending item. *)

(** {1 Serialization}

    A schedule serializes as one item per line — ["TIME KIND ID"], e.g.
    ["5000000 link_down 3"], times in integer nanoseconds — the format of
    fuzz-corpus files and the [test/seeds/] regression corpus. *)

val schedule_to_string : schedule -> string
(** One item per line, newline-terminated; [""] for the empty schedule. *)

val schedule_of_string : string -> (schedule, string) result
(** Inverse of {!schedule_to_string}; blank lines are skipped.  Does not
    validate — run {!validate} on the result. *)

(** {1 Schedule surgery}

    The fuzzer's mutation operators.  Each is deterministic in the rng,
    returns a sorted schedule, and preserves {!validate}'s invariants for
    valid inputs: mutated times are clamped to [[0, horizon]] and
    {!retarget_one} only picks component ids present in the graph.  An
    empty schedule passes through unchanged. *)

val splice : rng:Autonet_sim.Rng.t -> schedule -> schedule -> schedule
(** Crossover: a random cut instant; items of the first schedule strictly
    before the cut, items of the second at or after it. *)

val duplicate_one :
  rng:Autonet_sim.Rng.t -> horizon:Autonet_sim.Time.t -> schedule -> schedule
(** Copy one random item to a jittered nearby instant — the operator that
    grows schedules past what {!random} generates. *)

val shift_one :
  rng:Autonet_sim.Rng.t -> horizon:Autonet_sim.Time.t -> schedule -> schedule
(** Move one random item by a random delta (either direction). *)

val retarget_one :
  rng:Autonet_sim.Rng.t -> graph:Graph.t -> schedule -> schedule
(** Re-aim one random item at a different component of the same kind
    (links stay links, switches stay switches). *)

val drop_one : rng:Autonet_sim.Rng.t -> schedule -> schedule
(** Remove one random item; a schedule of one item is returned intact so
    mutation never manufactures the empty schedule. *)

val merge : schedule -> schedule -> schedule
(** The sorted union of two schedules — the fuzzer's density-doubling
    move, since the point operators above never change an event count by
    more than one. *)

val thin : rng:Autonet_sim.Rng.t -> schedule -> schedule
(** Keep each item with probability 1/2 (at least one survives) — the
    density-halving inverse of {!merge}, reaching sparse schedules the
    generator's fixed event budget never draws. *)

val stretch : schedule -> schedule
(** Double every timestamp: the same faults, spread out — each gets its
    own quiet window and its own reconfiguration.  Mutated schedules may
    exceed the horizon the generator drew under; campaigns run to the
    last fault regardless. *)

val squeeze : schedule -> schedule
(** Halve every timestamp: the same faults, piled into the same
    detection windows — superseded epochs and skeptic pressure. *)

val pp : Format.formatter -> schedule -> unit
