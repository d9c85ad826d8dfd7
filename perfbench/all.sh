#!/usr/bin/env bash
# Runs every workload once, timed and then traced, printing each run's
# notes (stamp, latency digest, findings, checks) and its result line
# with every metric by name and unit. Exits non-zero when any run
# fails, including a failed output check. Run from the root of a
# checkout:
#
#   bash perfbench/all.sh [seed] [seconds]
set -uo pipefail

seed="${1:-1}"
seconds="${2:-20}"
status=0
for workload in fleet-day fleet-remote fleet-tier decide-open; do
	for trace in 0 1; do
		echo "== $workload trace=$trace seed=$seed"
		bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=1
	done
done
exit "$status"
