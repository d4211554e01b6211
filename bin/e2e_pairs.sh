#!/usr/bin/env bash
# e2e_pairs.sh PARENT_CHECKOUT WORKLOAD PAIRS [SECONDS]
#
# Judges a change with the end-to-end benchmark (bench/e2e) the way a
# claimed gain is judged: PAIRS pairs of untraced runs of WORKLOAD, pair
# k on seed k, each run SECONDS long (default 18, the benchmark's run
# length), alternating which side runs first.  Run it from the root of
# the changed checkout; PARENT_CHECKOUT is another checkout of the
# project (make it with `git clone` or `git archive`, not `git worktree`).
# Each side builds and runs its own bench/e2e/run.sh.
#
# Prints every run's end-to-end metrics, then for each end-to-end metric
# of BENCHMARK.json each side's median and quartiles, the number of pairs
# the change won (ties count for neither), the change's median relative
# to the parent's, the metric's bound and a no-regression verdict:
#   ok          the change's median is worse than the parent's by no more
#               than the bound, or every change run beats every parent run;
#   worse       it is worse by more than the bound;
#   unresolved  the parent's interquartile range, relative to its median,
#               exceeds the bound (and the change did not win every run),
#               so the runs cannot tell a regression from noise.
# Then each side's total failed operations.  A run that exits nonzero
# (e2e.exe does when an operation fails) or prints no result is marked on
# its seed's line and kept: its metrics, if any, still count, and a side
# without a result drops out of that pair.  The summary always prints;
# the script then exits 1 if any run failed or any verdict is worse.
# Reads bench/e2e in both checkouts and edits nothing; the runs' JSON
# lines go to a temporary directory.
#
#   bash bin/e2e_pairs.sh ../parent torus256_flap 10
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
  echo "usage: $0 PARENT_CHECKOUT WORKLOAD PAIRS [SECONDS]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
workload=$2
pairs=$3
seconds=${4:-18}
change=$PWD
for dir in "$parent" "$change"; do
  if [ ! -f "$dir/bench/e2e/run.sh" ]; then
    echo "e2e_pairs: $dir is not an autonet checkout" >&2
    exit 2
  fi
done

# name:better:bound for each end-to-end metric, in BENCHMARK.json's order.
metrics=$(awk '
  /"end_to_end"/ { on = 1 }
  on && /"per_layer"/ { on = 0 }
  on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
  on && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
  on && /"bound"/ { gsub(/[",]/, "", $2); print name ":" better ":" $2 }
' "$change/BENCHMARK.json")

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

failed_runs=0

# run SIDE DIR SEED: keeps the run's last stdout line; a run that exits
# nonzero or prints no result line gets a note in SIDE-SEED.note.
run() {
  local status=0
  (cd "$2" && bash bench/e2e/run.sh --workload "$workload" --seed "$3" \
     --seconds "$seconds" --trace 0 2>/dev/null) > "$out/$1-$3.log" || status=$?
  tail -n 1 "$out/$1-$3.log" > "$out/$1-$3.json"
  local note=""
  [ "$status" -eq 0 ] || note="exit $status"
  grep -q '"value"' "$out/$1-$3.json" || note="${note:+$note, }no result"
  if [ -n "$note" ]; then
    echo "$note" > "$out/$1-$3.note"
    failed_runs=$((failed_runs + 1))
  fi
}

# value FILE METRIC: the metric's value in a result line, NA if none.
value() {
  local v
  v=$(sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p" "$1")
  echo "${v:-NA}"
}

for seed in $(seq 1 "$pairs"); do
  if [ $((seed % 2)) -eq 1 ]; then
    run parent "$parent" "$seed"
    run change "$change" "$seed"
  else
    run change "$change" "$seed"
    run parent "$parent" "$seed"
  fi
  line="seed $seed"
  for m in $metrics; do
    name=${m%%:*}
    line="$line  $name $(value "$out/parent-$seed.json" "$name") -> $(value "$out/change-$seed.json" "$name")"
  done
  for side in parent change; do
    if [ -f "$out/$side-$seed.note" ]; then
      line="$line  [$side run failed: $(cat "$out/$side-$seed.note")]"
    fi
  done
  echo "$line"
done

printf '\n%-14s %-7s %-32s %-32s %-6s %-8s %-6s %s\n' metric better \
  "parent median [q1, q3]" "change median [q1, q3]" wins median bound verdict
for m in $metrics; do
  name=${m%%:*}
  better=${m#*:}
  bound=${better#*:}
  better=${better%%:*}
  for seed in $(seq 1 "$pairs"); do
    echo "$(value "$out/parent-$seed.json" "$name") $(value "$out/change-$seed.json" "$name")"
  done | awk -v name="$name" -v better="$better" -v bound="$bound" -v n="$pairs" '
    function q(a, k, p,   x, i) { # linear-interpolated quantile of sorted a
      x = 1 + (k - 1) * p; i = int(x)
      return i >= k ? a[k] : a[i] + (x - i) * (a[i + 1] - a[i])
    }
    function sorted(src, dst, k,   i, j, t) {
      for (i = 1; i <= k; i++) dst[i] = src[i]
      for (i = 2; i <= k; i++)
        for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) {
          t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t
        }
    }
    function summary(a, k,   s) {
      if (k == 0) return "NA"
      sorted(a, s, k)
      return sprintf("%.4g [%.4g, %.4g]", q(s, k, .5), q(s, k, .25), q(s, k, .75))
    }
    function beats(x, y) { return better == "lower" ? x < y : x > y }
    { if ($1 != "NA") p[++np] = $1 + 0
      if ($2 != "NA") c[++nc] = $2 + 0
      if ($1 != "NA" && $2 != "NA" && beats($2 + 0, $1 + 0)) wins++ }
    END {
      rel = "NA"; verdict = "unresolved"
      if (np > 0 && nc > 0) {
        sorted(p, ps, np); sorted(c, cs, nc)
        pm = q(ps, np, .5)
        # Every change run beats every parent run: the best parent run
        # against the worst change run.
        all = better == "lower" ? beats(cs[nc], ps[1]) : beats(cs[1], ps[np])
        if (pm != 0) {
          rel = (q(cs, nc, .5) - pm) / pm
          worse_by = better == "lower" ? rel : -rel
          spread = (q(ps, np, .75) - q(ps, np, .25)) / (pm < 0 ? -pm : pm)
          if (all) verdict = "ok"
          else if (spread > bound + 0) verdict = "unresolved"
          else verdict = worse_by > bound + 0 ? "worse" : "ok"
          rel = sprintf("%+.1f%%", 100 * rel)
        }
      }
      printf "%-14s %-7s %-32s %-32s %-6s %-8s %-6s %s\n", name, better,
        summary(p, np), summary(c, nc), (wins + 0) "/" n, rel,
        sprintf("%.0f%%", 100 * bound), verdict
    }' | tee -a "$out/verdicts"
done

failed() { # failed SIDE: the failed operations over all runs of a side
  cat "$out/$1"-*.json | sed -n 's/.*"failed":\([0-9]*\).*/\1/p' \
    | awk '{ s += $1 } END { print s + 0 }'
}
echo
echo "failed operations: parent $(failed parent), change $(failed change)"
status=0
if [ "$failed_runs" -gt 0 ]; then
  echo "e2e_pairs: $failed_runs run(s) failed; see the marked seeds above" >&2
  status=1
fi
if grep -q ' worse$' "$out/verdicts"; then
  echo "e2e_pairs: an end-to-end metric is worse than its bound" >&2
  status=1
fi
exit "$status"
