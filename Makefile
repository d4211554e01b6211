.PHONY: all test bench bench-smoke bench-scaling bench-gates bench-delta \
	bench-fuzz bench-json bench-e2e bench-e2e-smoke chaos-smoke \
	chaos-smoke-4 telemetry-smoke trace-smoke fuzz-smoke clean

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
# depends on the machine's load: today the domain-pool speedup gate.
bench-gates: bench-scaling

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

# The incremental-reconfiguration speedup gate: the delta fast path must
# beat the full epoch recompute by at least 5x on the 256-switch torus
# after a non-tree link fault (also attached to `dune runtest`; see
# bench/exp_delta.ml).
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
# must be byte-identical at 1, 2 and 4 domains, a repeated 2-shard
# multi-process run that must merge identically both times, and a short
# churn campaign byte-compared across domain counts.
fuzz-smoke:
	dune build @fuzz-smoke

# Regenerate the committed kernel perf trajectory.
bench-json:
	dune exec bench/main.exe -- micro --json BENCH_micro.json

clean:
	dune clean
