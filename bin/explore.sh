#!/usr/bin/env bash
# explore.sh K — look for failures at K fresh seeds (kept out of runtest,
# whose every QCheck property runs at the pinned seed 21).
#
# Draws K seeds from /dev/urandom and prints them.  For each seed it runs
# the QCheck suites with QCHECK_SEED set to it, a chaos campaign over
# src, torus:3,3 and random:8,4, and a guided fuzz run on torus:3,3, all
# with that seed.  Each failure's command, seed and output goes to
# _build/explore/SEED-NAME.log (the directory is emptied first): the
# output holds QCheck's shrunk counterexample, the chaos reproducer with
# its shrunk schedule, or the fuzz run's first failure shrunk to a seed
# file.  Exits 1 if anything failed.  Run it from the root of a checkout:
#
#   bash bin/explore.sh 2        (or: make explore SEEDS=2)
set -u
k=${1:-1}
case $k in
  '' | *[!0-9]* | 0)
    echo "explore: the seed count must be a positive integer" >&2
    exit 2
    ;;
esac
root=$PWD
out=$root/_build/explore
suites="test_autopilot test_core test_crosscheck test_fastpath test_model \
test_net test_network test_parallel test_sim test_switch test_telemetry \
test_topo"
targets=./bin/autonet_sim_cli.exe
for s in $suites; do targets="$targets ./test/$s.exe"; done
# shellcheck disable=SC2086
dune build $targets || exit 2
rm -rf "$out"
mkdir -p "$out"
sim=$root/_build/default/bin/autonet_sim_cli.exe
seeds=$(od -An -N$((4 * k)) -tu4 /dev/urandom | tr -s ' ' '\n' | grep . |
  awk '{ print $1 % 1000000000 }')
echo "explore: seeds" $seeds
failed=0

# run NAME SEED CMD...: run CMD where dune runs the tests; keep a log of a
# failure.
run() {
  local name=$1 seed=$2
  shift 2
  local log=$out/$seed-$name.log
  if (cd "$root/_build/default/test" && "$@") > "$log.run" 2>&1; then
    echo "  ok    $name"
    rm -f "$log.run"
  else
    { echo "command: $*"; echo "seed: $seed"; echo; cat "$log.run"; } > "$log"
    rm -f "$log.run"
    echo "  FAIL  $name: $log"
    failed=1
  fi
}

for seed in $seeds; do
  echo "seed $seed"
  for s in $suites; do
    run "$s" "$seed" env QCHECK_SEED="$seed" "$root/_build/default/test/$s.exe"
  done
  run chaos "$seed" "$sim" chaos --topo src --topo torus:3,3 --topo random:8,4 \
    --seed "$seed"
  run fuzz "$seed" "$sim" chaos --topo torus:3,3 --fuzz 60 --seed "$seed"
done
if [ "$failed" -eq 0 ]; then
  echo "explore: no failure at" $seeds
else
  echo "explore: failures logged under $out"
fi
exit "$failed"
