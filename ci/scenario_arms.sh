#!/bin/sh
# Verified scenario arms with same-seed byte-identity checks.
#
# Usage: ci/scenario_arms.sh BUILD_DIR PACKETS [OUT_DIR]
#
# Runs six scenario_cli arms under the live enforcement-invariant oracle
# (--verify exits 3 on any violation):
#   fault         the scripted chaos timeline (crash, link flap, lossy control link)
#   offpath       the same timeline with off-path proxies behind edge-router loopbacks
#   reopt         the same timeline with drift-triggered re-optimisation
#   chaos         a seeded generated fault schedule
#   waxman        the scripted timeline on the Waxman world at 200,000 packets
#                 (ignores PACKETS), so the oracle's tables grow and recycle at scale
#   waxman_chaos  a seeded generated fault schedule on the Waxman world, whose
#                 link flaps make routing reconverge at Waxman scale
# Each arm runs twice with the same seed, in OUT_DIR/1 and OUT_DIR/2 (default
# OUT_DIR: arms). Its metrics, trace and span exports must be valid JSON, and
# they and its stdout must be byte-identical between the two runs. The reopt
# arm must also re-solve at least once, and the waxman_chaos arm must
# reconverge at least twice without dropping a packet for want of a route.
set -eu

if [ "$#" -lt 2 ]; then
  echo "usage: $0 BUILD_DIR PACKETS [OUT_DIR]" >&2
  exit 2
fi
cli="$(cd "$1" && pwd)/examples/scenario_cli"
packets=$2
out=${3:-arms}

# run_arm NAME [FLAGS...]: two same-seed runs of one arm, then compare them.
run_arm() {
  name=$1
  shift
  for pass in 1 2; do
    mkdir -p "$out/$pass"
    (cd "$out/$pass" && "$cli" --packets "$packets" --seed 42 --verify "$@" \
      --metrics-out "${name}_metrics.json" --trace-out "${name}_trace.json" \
      --spans-out "${name}_spans.json" > "${name}_stdout.txt")
  done
  for kind in metrics trace spans; do
    python3 -m json.tool "$out/1/${name}_$kind.json" > /dev/null
    cmp "$out/1/${name}_$kind.json" "$out/2/${name}_$kind.json"
  done
  cmp "$out/1/${name}_stdout.txt" "$out/2/${name}_stdout.txt"
  echo "scenario arm $name: verified, same-seed exports byte-identical"
}

run_arm fault
run_arm offpath --off-path
run_arm reopt --reopt-period 0.5 --reopt-threshold 0.05
run_arm chaos --faults generated --chaos-seed 7
run_arm waxman --topology waxman --packets 200000
run_arm waxman_chaos --topology waxman --faults generated --chaos-seed 7

# The oracle's series and span attributions, and the drift loop's series,
# made it into the exports.
grep -q verify_violations "$out/1/fault_metrics.json"
grep -q packets_in_window "$out/1/fault_spans.json"
grep -q episode:crash "$out/1/fault_spans.json"
grep -q reopt_epochs "$out/1/reopt_metrics.json"

# The drift loop actually re-solved. If proxies were never asked for
# reports, every epoch would be suppressed and the greps above would pass.
# The Waxman flaps actually rerouted: both link downs reconverged, and no
# flap cut a subnet off.
python3 -c '
import json, sys
def total(path, name):
    metrics = json.load(open(path))["metrics"]
    return sum(m["value"] for m in metrics if m["name"] == name)
solves = total(sys.argv[1], "reopt_solves")
if solves < 1:
    sys.exit("reopt arm: reopt_solves = %g, expected >= 1" % solves)
reconv = total(sys.argv[2], "fault_reconvergences")
if reconv < 2:
    sys.exit("waxman_chaos arm: fault_reconvergences = %g, expected >= 2" % reconv)
no_route = total(sys.argv[2], "net_dropped_no_route")
if no_route != 0:
    sys.exit("waxman_chaos arm: net_dropped_no_route = %g, expected 0" % no_route)
' "$out/1/reopt_metrics.json" "$out/1/waxman_chaos_metrics.json"
