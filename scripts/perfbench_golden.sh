#!/bin/sh
# Pin perfbench's simulated output. Runs every workload traced, seed 1,
# for one second, keeps the simulated report lines (sim_*,
# gmc_schedules, sim.events and the gmc/gpu/mem/core/osk counters; not
# the host-time ones) and compares them with
# tests/golden/perfbench_<workload>.txt.
#
#     scripts/perfbench_golden.sh            # exit 1 on any difference
#     scripts/perfbench_golden.sh --update   # rewrite the goldens
#
# Run from anywhere; perfbench builds the simulator from this checkout.
set -eu
cd "$(dirname "$0")/.."
update=0
if [ "${1:-}" = "--update" ]; then
    update=1
fi
mkdir -p .bench_build
status=0
for w in gkv_serve wordcount_ssd pread_daemon gmc_explore; do
    golden="tests/golden/perfbench_$w.txt"
    actual=".bench_build/perfbench_$w.actual"
    python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 \
        --trace 1 > "$actual.full"
    grep -E '^  (sim_|gmc|sim\.events |gpu\.|mem\.|core\.|osk\.)' \
        "$actual.full" | grep -Ev 'host_(ns|us|ms|s)([_ ]|$)' > "$actual"
    if [ "$update" = 1 ]; then
        cp "$actual" "$golden"
    elif ! diff -u "$golden" "$actual"; then
        echo "perfbench $w: simulated output differs from $golden" >&2
        status=1
    fi
done
exit "$status"
