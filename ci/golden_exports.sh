#!/bin/sh
# Golden exports: the deterministic outputs a refactor must leave
# byte-identical.
#
# Usage: ci/golden_exports.sh BUILD_DIR OUT_DIR
#
# Runs BUILD_DIR's binaries, each inside OUT_DIR so every path they print is
# relative, and writes:
#   waxman_*       scenario_cli on the Waxman world, fault-free and untraced:
#                  metrics as JSON, CSV and Prometheus text, and stdout
#   wrapped_*      scenario_cli on the campus world traced at rate 1.0, long
#                  enough to wrap the trace ring: trace and stdout
#   chaos_csN_*    scenario_cli verified under generated chaos seeds 1-4:
#                  metrics, trace, spans and stdout
#   chaos_campus_* scenario_cli verified under the scripted campus chaos
#                  timeline (one patched failover, one revival): metrics,
#                  trace, spans and stdout
#   chaos_waxman_* the same on the Waxman world traced at rate 1.0, whose
#                  failover patches most of the fleet: metrics, spans and
#                  stdout
#   suite.json     suite_cli --jobs 2 --seeds 3 --verify, plus its stdout
#   waxman_scale.json
#                  the 400- and 1000-edge Waxman sweep with the dense
#                  cross-check at 400; JSON only, because its stdout carries
#                  wall-clock and RSS columns
#   reopt_*        bench ablation_reoptimization: registry JSON and stdout
#   failover_stdout.txt, detection_latency_stdout.txt
#                  benches ablation_failover and ablation_detection_latency:
#                  oracle and heartbeat failure recovery
#   fig4_stdout.txt, fig5_stdout.txt, table3_stdout.txt
#                  the paper's outputs (Fig. 4, Fig. 5, Table III): analytic
#                  load-balanced selection over 1M-10M packets
#   a1_realized.txt
#                  ablation A1's realized max load of the Eq. (2) and Eq. (1)
#                  data planes; only that line, because its table carries
#                  wall-clock solve times
# Exits non-zero if any binary fails. To check a refactor, run it on a build
# of each commit and compare:
#   ci/golden_exports.sh BUILD_A OUT_A && ci/golden_exports.sh BUILD_B OUT_B
#   diff -r OUT_A OUT_B
set -eu

if [ "$#" -ne 2 ]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
build="$(cd "$1" && pwd)"
mkdir -p "$2"
cd "$2"

"$build/examples/scenario_cli" --topology waxman --seed 2019 --sim --faults none \
  --trace-sample 0 --metrics-out waxman_metrics.json > waxman_stdout.txt
# The same run again per metrics format; its stdout is the one above.
for ext in csv prom; do
  "$build/examples/scenario_cli" --topology waxman --seed 2019 --sim --faults none \
    --trace-sample 0 --metrics-out "waxman_metrics.$ext" > /dev/null
done

"$build/examples/scenario_cli" --packets 30000 --seed 42 --trace-out wrapped_trace.json \
  > wrapped_stdout.txt

for cs in 1 2 3 4; do
  "$build/examples/scenario_cli" --packets 2000 --seed 42 --verify --faults generated \
    --chaos-seed "$cs" --metrics-out "chaos_cs${cs}_metrics.json" \
    --trace-out "chaos_cs${cs}_trace.json" --spans-out "chaos_cs${cs}_spans.json" \
    > "chaos_cs${cs}_stdout.txt"
done

"$build/examples/scenario_cli" --packets 2000 --seed 42 --verify \
  --metrics-out chaos_campus_metrics.json --trace-out chaos_campus_trace.json \
  --spans-out chaos_campus_spans.json > chaos_campus_stdout.txt
"$build/examples/scenario_cli" --topology waxman --seed 2019 --sim --faults chaos \
  --trace-sample 1 --verify --metrics-out chaos_waxman_metrics.json \
  --spans-out chaos_waxman_spans.json > chaos_waxman_stdout.txt

"$build/examples/suite_cli" --jobs 2 --seeds 3 --verify --out suite.json > suite_stdout.txt

"$build/examples/waxman_scale" --max-edges 1000 --dense-max-edges 400 --packets 500000 \
  --json waxman_scale.json > /dev/null

SDMBOX_METRICS_OUT=reopt_metrics.json "$build/bench/ablation_reoptimization" \
  > reopt_stdout.txt

"$build/bench/ablation_failover" > failover_stdout.txt
"$build/bench/ablation_detection_latency" > detection_latency_stdout.txt

"$build/bench/fig4_campus_maxload" > fig4_stdout.txt
"$build/bench/fig5_waxman_maxload" > fig5_stdout.txt
"$build/bench/table3_load_distribution" > table3_stdout.txt
# Through a file, not a pipe, so a failing A1 still fails the script.
"$build/bench/ablation_lp_formulations" > a1_stdout.txt
grep '^Realized' a1_stdout.txt > a1_realized.txt
rm a1_stdout.txt
