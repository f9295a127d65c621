#!/bin/sh
# Run every workload untraced, then traced, from the repository root.
# usage: sh perfbench/run_all.sh [seed] [seconds]
set -e
seed=${1:-1}
seconds=${2:-20}
cd "$(dirname "$0")/.."
for w in estimate instrument sweep train; do
    for t in 0 1; do
        python3 perfbench/run.py --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t"
    done
done
