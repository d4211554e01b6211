#!/usr/bin/env bash
# usage_errors.sh AUTONET_SIM AUTONET_TOPO
#
# Runs each malformed invocation listed below and exits 1 unless every
# one is refused as a usage error: exit status 124 and no "internal
# error" on stderr.  Switch indices and link faults are checked against
# the built topology before anything boots, so every case is quick.
#
#   bash bin/usage_errors.sh _build/default/bin/autonet_sim_cli.exe \
#     _build/default/bin/topo_tool.exe
set -u
sim=$1
topo=$2
case $sim in /*) ;; *) sim=$PWD/$sim ;; esac
case $topo in /*) ;; *) topo=$PWD/$topo ;; esac
err=$(mktemp)
trap 'rm -f "$err"' EXIT
status=0
while read -r tool args; do
  case $tool in sim) exe=$sim ;; *) exe=$topo ;; esac
  # $args is split on purpose: it is the invocation's argument list.
  # shellcheck disable=SC2086
  "$exe" $args > /dev/null 2> "$err"
  code=$?
  if [ "$code" -ne 124 ] || grep -q 'internal error' "$err"; then
    echo "usage_errors: '$tool $args' exited $code, expected 124" >&2
    cat "$err" >&2
    status=1
  fi
done <<'EOF'
sim boot --params bogus
sim fail-link --params bogus
sim crash --params bogus
sim srp --params bogus
sim telemetry --params bogus
sim trace --params bogus
sim chaos --params bogus
sim telemetry --fault link:x
sim telemetry --fault link:-1
sim telemetry --fault switch:99
sim telemetry --fault bogus
sim trace --fault link:x
sim trace --fault link:-1
sim trace --fault switch:99
sim trace --fault bogus
sim trace --topo line:1 --fault link:0
sim crash --switch 99
sim crash --switch=-1
sim fail-link --link=-1
sim fail-link --topo line:1
sim srp --route 1,x
sim srp --route 99
sim srp --route 1,13
sim chaos --schedules 0
sim chaos --actions 0
sim chaos --horizon-ms 0
sim chaos --fuzz 0
sim chaos --churn 0
sim chaos --replay=-1
topo route --topo torus:3,3 0 99
topo route --topo torus:3,3 x 1
EOF
exit "$status"
