#!/usr/bin/env bash
# same_at_domains.sh COUNTS CMD ARGS...
#
# Runs CMD ARGS once per domain count in the comma-separated COUNTS, all
# at once, each with AUTONET_DOMAINS set to its count and its own copy of
# ARGS in which every {d} reads as that count (so each run writes its own
# output files).  Exits 1 unless every run succeeds and its stdout and
# every {d} file are byte-identical to the first count's.  The runs work
# in a private temporary directory, so smoke rules running side by side
# in one build directory cannot clobber each other's files.
#
#   bash bin/same_at_domains.sh 1,2,4 _build/default/bin/autonet_sim_cli.exe \
#     telemetry --topo src --check --spans trace-{d}.json
set -u
counts=${1//,/ }
cmd=$2
shift 2
case $cmd in /*) ;; *) cmd=$PWD/$cmd ;; esac
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1
pat='{d}'
pids=()
for d in $counts; do
  AUTONET_DOMAINS=$d "$cmd" "${@//"$pat"/$d}" > "stdout-$d" &
  pids+=("$!")
done
status=0
i=0
for d in $counts; do
  if ! wait "${pids[$i]}"; then
    echo "same_at_domains: failed at AUTONET_DOMAINS=$d: $cmd $*" >&2
    cat "stdout-$d" >&2
    status=1
  fi
  i=$((i + 1))
done
[ "$status" -eq 0 ] || exit 1
first=${counts%% *}
for d in $counts; do
  [ "$d" = "$first" ] && continue
  cmp "stdout-$first" "stdout-$d" || status=1
  for a in "$@"; do
    case $a in
      *"$pat"*) cmp "${a//"$pat"/$first}" "${a//"$pat"/$d}" || status=1 ;;
    esac
  done
done
exit "$status"
