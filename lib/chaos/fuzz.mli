(** Coverage-guided fault fuzzing and long-horizon churn campaigns.

    {!Chaos.run_campaign} samples fault schedules blindly: every schedule
    is an independent draw from {!Faults.random}, so after the first few
    hundred runs most draws exercise behaviour the campaign has already
    seen.  This module adds the classic coverage-guided loop on top of the
    same deterministic simulator:

    - each executed schedule is reduced to a {e coverage signature} — the
      oracle's violation labels plus bucketed telemetry counters and
      bucketed {!Autonet_telemetry.Timeline.shape} features — read as a
      set of per-feature coverage {e cells};
    - schedules covering a cell no earlier schedule covered join a
      {e corpus};
    - subsequent candidates are mutations of corpus entries
      ({!Faults.splice}, {!Faults.merge}, {!Faults.thin},
      {!Faults.duplicate_one}, {!Faults.shift_one},
      {!Faults.retarget_one}, {!Faults.drop_one}), with blind sampling
      kept as a configurable fallback so exploration never starves.

    The whole loop is deterministic: candidates are generated sequentially
    from a single campaign {!Autonet_sim.Rng} and executed in batches on
    the domain pool, whose [parallel_map_array] returns results in
    submission order.  A run is therefore byte-reproducible from one seed
    at any [AUTONET_DOMAINS] setting, and corpora from shard processes
    merge deterministically ({!merge_corpora}).

    Long-horizon {!churn} campaigns complement the fuzzer: instead of
    short schedules replayed from boot, one network survives thousands of
    fault/heal cycles while per-cycle degradation metrics (heal latency
    histogram, convergence timeouts, periodic oracle audits) accumulate in
    a {!Autonet_telemetry.Metrics} registry. *)

open Autonet_topo

(** {1 Coverage signatures} *)

val bucket : int -> int
(** Monotone bucketing used for signature features: 0 and 1 map to
    themselves, then one bucket per octave ([2,4), [4,8), [8,16), ...),
    so a counter must change by about 2x to open a new coverage cell. *)

val signature :
  violations:Oracle.violation list ->
  Autonet_telemetry.Metrics.snapshot ->
  Autonet_telemetry.Timeline.t ->
  string
(** ["v=LABELS|c=BUCKETS|t=BUCKETS"] — sorted violation labels (["ok"]
    when none), bucketed values of eleven telemetry counters (listed in
    fuzz.ml; one a run never touched reads 0), bucketed
    {!Autonet_telemetry.Timeline.shape} features. *)

val cells_of_signature : string -> string list
(** The coverage cells a signature covers: one ["v:LABEL"] cell per
    violation label and one ["c<i>:B"] / ["t<i>:B"] cell per bucketed
    feature.  Novelty is judged cell-wise — a schedule is corpus-worthy
    when {e any} of its cells is new — not on the whole vector, whose
    cross-product of jittery dimensions would make every schedule look
    novel. *)

(** {1 Corpus entries} *)

type entry = {
  e_seed : int64;  (** network/topology seed the schedule replays on *)
  e_schedule : Faults.schedule;
  e_signature : string;
  e_violations : string list;  (** sorted {!Oracle.label}s, [[]] = pass *)
}

val execute : Chaos.config -> seed:int64 -> schedule:Faults.schedule -> entry
(** Run one schedule with telemetry forced on and package the verdict and
    its coverage signature. *)

(** {1 The fuzz loop} *)

type config = {
  chaos : Chaos.config;
  budget : int;  (** total schedule executions *)
  batch : int;  (** executions fanned to the pool per round *)
  guided : bool;
      (** [false] = pure blind sampling (the baseline).  When guided, 10%
          of candidates are still drawn blind, so the mutator cannot
          starve exploration (AFL's "havoc vs. import"), and a mutated
          candidate stacks up to 4 operators per phase. *)
  max_span : int;
      (** [stretch] retires once the schedule spans this many horizons —
          the knob that bounds how expensive a mutated schedule can get
          to simulate (tests pin it low; the bench gate runs the
          default) *)
}

val default : Chaos.config -> config
(** budget 200, batch 8, guided, 10% blind, ≤4 stacked mutations per
    phase, span capped at 128 horizons. *)

type result = {
  r_corpus : entry list;  (** coverage-novel entries, discovery order *)
  r_failures : entry list;  (** every entry with violations, in order *)
  r_executed : int;
  r_distinct : int;  (** [List.length r_corpus] *)
  r_cells : int;  (** total coverage cells the run covered *)
  r_signatures : int;
      (** distinct whole signature strings across every executed
          schedule.  Reported for the record, not gated on: with ~16
          jittery dimensions the cross-product rewards noise, so blind
          sampling can "win" this count while lighting far fewer cells —
          [r_cells] and [r_distinct] are the coverage yardsticks. *)
}

val run : ?pool:Autonet_parallel.Pool.t -> config -> seed:int64 -> result
(** Run the loop until [budget] executions.  Deterministic in [seed]:
    identical corpora and failures at any domain count. *)

(** {1 Corpus serialization}

    Textual, line-oriented, diff- and [cmp]-friendly: a ["# autonet fuzz
    corpus v1"] header, then per entry a
    ["entry seed=0x... viol=... sig=..."] line, the schedule in
    {!Faults.schedule_to_string} format, and a terminating ["end"]. *)

val corpus_to_string : entry list -> string
val corpus_of_string : string -> (entry list, string) Stdlib.result

val merge_corpora : entry list list -> entry list
(** Replay cell-novelty across the concatenation: an entry survives iff
    it still covers a cell no earlier entry covered.  Scanning is in list
    order, so merging shard corpora in shard-index order is
    deterministic. *)

(** {1 Regression seed files}

    A seed file pins one reproducer: topology spec, params preset, hosts
    per switch, network seed and the fault schedule.  [test/seeds/*.seed]
    replays each through the oracle on every test run. *)

type seed_file = {
  sf_topo : string;  (** {!Builders.of_spec} topology spec *)
  sf_params : string;  (** {!Autonet_autopilot.Params.preset} name *)
  sf_hosts : int;
  sf_seed : int64;
  sf_schedule : Faults.schedule;
}

val seed_file_to_string : seed_file -> string
val seed_file_of_string : string -> (seed_file, string) Stdlib.result

val replay_seed : ?hook:Chaos.hook -> seed_file -> Oracle.violation list
(** Replay the pinned schedule under its topology, params preset and host
    count ({!Chaos.default_config} elsewhere); [[]] means the regression
    stays fixed.  Raises [Invalid_argument] on an unknown params preset. *)

(** {1 Long-horizon churn campaigns} *)

type churn_report = {
  ch_cycles : int;
  ch_heals : int;  (** converged fault/heal steps (≤ 2 per cycle) *)
  ch_epochs : int;  (** total reconfigurations over the whole campaign *)
  ch_not_converged : int;  (** steps that hit the convergence timeout *)
  ch_max_heal : Autonet_sim.Time.t;
  ch_mean_heal : Autonet_sim.Time.t;
  ch_early_max_heal : Autonet_sim.Time.t;
      (** max heal over the first half of the campaign — compared against
          [ch_late_max_heal] to detect degradation over thousands of
          epochs (leaked state would stretch late heals) *)
  ch_late_max_heal : Autonet_sim.Time.t;
  ch_oracle_checks : int;
  ch_oracle_violations : (int * string list) list;
      (** (cycle, sorted labels) for every failed periodic audit *)
  ch_metrics : Autonet_telemetry.Metrics.snapshot;
      (** the campaign's own [churn.*] registry: cycle/heal/timeout
          counters, heal-latency histogram (µs), max-heal gauge *)
}

val churn :
  ?check_every:int ->
  Chaos.config ->
  seed:int64 ->
  cycles:int ->
  churn_report
(** Boot one network from [Chaos.config], converge it, then run [cycles]
    churn cycles: each picks a random live component (40% a switch
    reboot, else a link flap), injects the down fault, waits for
    convergence, injects the matching up fault, waits again.  Every
    [check_every] cycles (default 100; [0] disables) the full oracle
    audits the quiesced network.  Deterministic in [seed].

    Raises [Invalid_argument] if the unfaulted network cannot converge. *)

val pp_churn_report : Format.formatter -> churn_report -> unit
