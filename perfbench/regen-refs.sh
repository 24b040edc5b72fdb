#!/bin/sh
# Regenerates the exact reference sweep documents the benchmark checks every
# run against (perfbench/refs/), one per batch workload scale. Run it from
# the repository root after an intentional result change, with an ogate-sim
# built from the same tree:
#
#   sh perfbench/regen-refs.sh [path/to/ogate-sim]    # default build/tools/ogate-sim
#
# --jobs does not change a byte of a sweep document, so any job count works.
set -e
SIM=${1:-build/tools/ogate-sim}
for SCALE in 1 8; do
  "$SIM" --sweep --scale=$SCALE --jobs=4 \
    --json=perfbench/refs/exact-standard-scale$SCALE.json > /dev/null
done
