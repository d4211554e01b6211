.PHONY: all test bench bench-smoke bench-scaling bench-gates bench-delta \
	bench-fuzz bench-json bench-e2e bench-e2e-smoke bench-e2e-pairs chaos-smoke \
	chaos-smoke-4 telemetry-smoke trace-smoke fuzz-smoke profile explore \
	same-as-parent clean

all:
	dune build @all

test:
	dune build && dune runtest

# Full experiment harness (slow).
bench:
	dune exec bench/main.exe

# Tiny-budget run of the micro benchmark plus a full build: the cheap
# CI guard that keeps the bench executable compiling and running.
bench-smoke:
	dune build @all @bench-smoke

# The domain-pool speedup gate: smoke-budget wall/CPU timing of the
# pooled kernels on the 256-switch torus, exiting nonzero on a slowdown
# (see bench/exp_scaling.ml).
bench-scaling:
	dune build @bench-scaling

# The wall-clock gates kept out of `dune runtest` because their verdict
# depends on the machine's load: the domain-pool speedup gate and the
# delta fast path's >=5x bar over the full epoch recompute.
bench-gates: bench-scaling
	dune exec bench/main.exe -- delta

# The end-to-end benchmark's determinism smoke: every workload at a size
# that runs in seconds, byte-compared at 1 and 2 domains (also attached
# to `dune runtest`; see bench/e2e/README.md).
bench-e2e-smoke:
	dune build @bench-e2e-smoke

# One untraced 10-second end-to-end run of every benchmark workload,
# seed 1; each prints its JSON result as the last line.  For one run
# with other settings call the script directly, e.g.
#   bash bench/e2e/run.sh --workload torus256_flap --seed 2 --trace 1
bench-e2e:
	for w in torus256_flap src_faults src_chaos fuzz_random; do \
	  bash bench/e2e/run.sh --workload $$w || exit 1; \
	done

# A change against another checkout (e.g. its parent, cloned elsewhere):
# PAIRS alternating pairs of untraced runs of one workload, each side's
# medians and quartiles, the change's win count and a no-regression
# verdict per end-to-end metric against BENCHMARK.json's bound (ok, worse
# or unresolved; the target fails on worse) (bin/e2e_pairs.sh), e.g.
#   make bench-e2e-pairs PARENT=../parent WORKLOAD=torus256_flap PAIRS=10
PAIRS ?= 10
RUN_SECONDS ?= 18
bench-e2e-pairs:
	bash bin/e2e_pairs.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(RUN_SECONDS)

# Same simulation as another checkout (e.g. its parent, cloned elsewhere):
# a fixed list of smoke, example, experiment and benchmark-smoke commands
# at one domain on both sides, their exit status, stdout, stderr and
# written files compared (bin/same_as_parent.sh).  Not part of runtest.
#   make same-as-parent PARENT=../parent
same-as-parent:
	bash bin/same_as_parent.sh $(PARENT)

# The incremental-reconfiguration gate's deterministic half: after a
# non-tree link fault on the 256-switch torus the delta fast path must
# equal the full epoch recompute and stay within its work-counter bars
# (also attached to `dune runtest`; the timed >=5x bar is in
# bench-gates; see bench/exp_delta.ml).
bench-delta:
	dune build @bench-delta

# Randomized fault campaign with network-wide invariant checking, run at
# 1, 2 and 4 domains; the verdict streams must compare equal.
chaos-smoke: chaos-smoke-4
	dune build @chaos-smoke

# The same campaign driven end-to-end through the CLI with the pool
# forced to 4 domains from the environment — the oversubscribed
# configuration the dune rules pin, exercised the way an operator would
# set it.
chaos-smoke-4:
	AUTONET_DOMAINS=4 dune exec bin/autonet_sim_cli.exe -- chaos \
	  --topo src --topo torus:3,3 --schedules 20 --seed 42

# One SRC reconfiguration with telemetry on: the emitted Chrome trace
# must parse, its phase spans must nest and sum to the epoch duration,
# and stdout + trace must be byte-identical at 1, 2 and 4 domains.
telemetry-smoke:
	dune build @telemetry-smoke

# One SRC and one 256-switch-torus reconfiguration with causal tracing
# on: the reconstructed propagation wave must cover every configured
# switch exactly once with valid parent hops, and the JSON dump must be
# byte-identical at 1, 2 and 4 domains.
trace-smoke:
	dune build @trace-smoke

# The coverage-guided fuzz gate at smoke budget: guided must beat blind
# sampling and reproduce byte-identically, and the short churn campaign
# must converge cleanly (also attached to `dune runtest`; the full bar —
# guided subsumes every blind coverage cell and covers >=1.5x as many —
# runs under `dune exec bench/main.exe -- fuzz`; see bench/exp_fuzz.ml).
bench-fuzz:
	dune build @bench-fuzz

# Fixed-budget coverage-guided fuzz runs whose stdout and corpus files
# must be byte-identical at 1, 2 and 4 domains, a 2-shard multi-process
# run repeated at 1 and 2 domains that must merge identically both times,
# and a short churn campaign byte-compared across domain counts.
fuzz-smoke:
	dune build @fuzz-smoke

# Where one reconfiguration's time and allocation go: a fixed torus:16,16
# flap driver at one domain prints per-reconfiguration work counters
# (events, packets, bytes, words, collections) and a SIGALRM-sampled
# call-stack table (see bench/exp_profile.ml).  Not part of runtest.
profile:
	AUTONET_DOMAINS=1 dune exec bench/main.exe -- profile

# Exploration at SEEDS fresh seeds, kept out of runtest (which pins every
# QCheck property to seed 21): the QCheck suites, a chaos campaign and a
# guided fuzz run per seed; each failure's command, seed and shrunk case
# goes to _build/explore/ and the target fails (see bin/explore.sh).
SEEDS ?= 1
explore:
	bash bin/explore.sh $(SEEDS)

# Regenerate the committed kernel perf trajectory.
bench-json:
	dune exec bench/main.exe -- micro --json BENCH_micro.json

clean:
	dune clean
