#!/usr/bin/env bash
# same_as_parent.sh PARENT_CHECKOUT
#
# Checks that a change simulates exactly what another checkout of the
# project (its parent, made with `git clone` or `git archive`, not `git
# worktree`) simulates.  Run it from the root of the changed checkout.  It
# builds the executables of both checkouts, then runs a fixed list of
# commands once per side, at AUTONET_DOMAINS=1, each run in its own empty
# temporary directory, the two sides of a command side by side.  For each
# command it compares the exit status, stdout, stderr and every file the
# run wrote.  It prints how many commands were identical, and names each
# command that differs with every stream that differs under it: the two
# exit statuses, and for stdout, stderr and the written files the first
# lines of the diff (parent lines `<`, change lines `>`).  It exits 1 on
# any difference (2 on a usage or build error).
#
# The list: every smoke command of bin/dune, a fuzz run in the end-to-end
# benchmark's fuzz_random configuration, the boot, crash and srp
# logs, a route query, the five examples, the bench experiments that run
# the packet and flit simulators (both schedulers), the deadlock checker,
# the address audit and the table sizes, the experiments that stop and
# restart switch timers (a flapping link, a switch powered off under a
# dual-homed host, rollout reboots inside a packet handler), and the
# end-to-end benchmark's smoke at one domain.  None of them reads a wall clock into its output.
# Edits nothing in either checkout but their _build directories.
#
#   bash bin/same_as_parent.sh ../parent
set -uo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 PARENT_CHECKOUT" >&2
  exit 2
fi
parent=$(cd "$1" && pwd) || exit 2
change=$PWD

examples="quickstart reconfiguration_demo broadcast_deadlock failover_demo
  service_lan"
targets="bin/autonet_sim_cli.exe bin/topo_tool.exe bench/main.exe
  bench/e2e/e2e.exe"
for e in $examples; do targets="$targets examples/$e.exe"; done
for dir in "$parent" "$change"; do
  # shellcheck disable=SC2086 # the target list splits on purpose
  if ! (cd "$dir" && dune build $targets); then
    echo "same_as_parent: build failed in $dir" >&2
    exit 2
  fi
done

# One command a line.  @sim, @topo, @bench, @e2e, @usage and @ex/NAME
# stand for the side's own autonet-sim, autonet-topo, bench/main.exe,
# bench/e2e/e2e.exe, bin/usage_errors.sh and examples/NAME.exe.
commands=(
  "@sim chaos --topo src --topo torus:3,3 --topo random:8,4 --schedules 70 --seed 42"
  "@topo check --hosts 2 --topo src"
  "@topo check --hosts 2 --topo figure9"
  "@topo check --hosts 2 --topo line:5"
  "@topo check --hosts 2 --topo ring:6"
  "@topo check --hosts 2 --topo star:4"
  "@topo check --hosts 2 --topo tree:2,3"
  "@topo check --hosts 2 --topo mesh:3,4"
  "@topo check --hosts 2 --topo torus:4,8"
  "@topo check --hosts 2 --topo torus:16,16"
  "@topo check --hosts 2 --topo random:16,8"
  "@sim chaos --topo figure9 --topo star:4 --topo tree:2,2 --topo mesh:3,3 --topo torus:8,8 --schedules 10 --seed 42"
  "@sim chaos --topo torus:3,3 --seed 42 --replay 0"
  "bash @usage @sim @topo"
  "@sim srp --route 1,0 --params fast"
  "@sim telemetry --topo src --params fast --metrics --check --spans telemetry.trace.json"
  "@sim trace --topo src --params fast --json --check"
  "@sim trace --topo torus:16,16 --params fast --json --check"
  "@sim chaos --topo torus:3,3 --fuzz 60 --seed 7 --corpus-out fuzz.corpus"
  "@sim chaos --topo torus:3,3 --fuzz 60 --shards 2 --seed 7 --corpus-out fuzz-shards.corpus"
  "@sim chaos --topo random:8,4 --fuzz 100 --seed 1"
  "@sim chaos --topo torus:3,3 --churn 20 --seed 7"
  "@sim chaos --topo src --hosts 2 --schedules 20 --seed 42"
  "@sim boot --topo src --hosts 2 --params fast --log"
  "@sim crash --topo src --hosts 2 --switch 7 --log"
  "@sim srp --topo torus:3,3 --route 1,2 --params fast"
  "@topo route 0 29 --topo src"
  "@ex/quickstart"
  "@ex/reconfiguration_demo"
  "@ex/broadcast_deadlock"
  "@ex/failover_demo"
  "@ex/service_lan"
  "@bench e3"
  "@bench e4"
  "@bench e6"
  "@bench e7"
  "@bench e8"
  "@bench e10"
  "@bench e13"
  "@bench e15"
  "@bench a1"
  "@bench a2"
  "@bench a3"
  "@e2e smoke --domains 1"
)

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# run SIDE DIR I COMMAND: the command's status, stdout and stderr land in
# $out/SIDE-I, the files it writes in $out/SIDE-I/files.
run() {
  local side=$1 dir=$2 i=$3 word args=()
  local work=$out/$side-$i
  mkdir -p "$work/files"
  for word in $4; do
    case $word in
      @sim) args+=("$dir/_build/default/bin/autonet_sim_cli.exe") ;;
      @topo) args+=("$dir/_build/default/bin/topo_tool.exe") ;;
      @bench) args+=("$dir/_build/default/bench/main.exe") ;;
      @e2e) args+=("$dir/_build/default/bench/e2e/e2e.exe") ;;
      @usage) args+=("$dir/bin/usage_errors.sh") ;;
      @ex/*) args+=("$dir/_build/default/examples/${word#@ex/}.exe") ;;
      *) args+=("$word") ;;
    esac
  done
  local status=0
  (cd "$work/files" && AUTONET_DOMAINS=1 "${args[@]}" \
     > "$work/stdout" 2> "$work/stderr") || status=$?
  echo "$status" > "$work/status"
}

# The first lines of a diff, indented under its stream's line.
diff_lines=12
show_diff() {
  diff "$@" 2>&1 | sed "s|$out/||g" | head -n "$diff_lines" | sed 's/^/    /'
}

same=0
differ=0
for i in "${!commands[@]}"; do
  cmd=${commands[$i]}
  run parent "$parent" "$i" "$cmd" &
  run change "$change" "$i" "$cmd"
  wait
  p=$out/parent-$i
  c=$out/change-$i
  report=""
  cmp -s "$p/status" "$c/status" ||
    report+="  status: parent $(cat "$p/status"), change $(cat "$c/status")"$'\n'
  for stream in stdout stderr; do
    cmp -s "$p/$stream" "$c/$stream" ||
      report+="  $stream:"$'\n'"$(show_diff "$p/$stream" "$c/$stream")"$'\n'
  done
  diff -rq "$p/files" "$c/files" > /dev/null ||
    report+="  files:"$'\n'"$(show_diff -r "$p/files" "$c/files")"$'\n'
  if [ -z "$report" ]; then
    same=$((same + 1))
  else
    differ=$((differ + 1))
    echo "differs: $cmd"
    printf '%s' "$report"
  fi
done

echo "same_as_parent: $same of ${#commands[@]} commands identical"
[ "$differ" -eq 0 ]
