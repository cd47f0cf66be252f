#!/usr/bin/env bash
# Batch-vs-streamed parity check for one scenario.
#
# Usage: scripts/serve_parity.sh BIN_DIR NAME ACCEL FLAG...
#
# Runs BIN_DIR/gaia_run with the scenario FLAGs, exporting the
# workload to NAME-trace.csv and the results to NAME-results/. Then
# boots BIN_DIR/gaia_serve with the same FLAGs on NAME.sock at
# ACCEL x wall-clock (0 = unpaced), streams the trace through
# serve_client.py, and diffs the two fingerprints: exit 0 only when
# they match. It leaves NAME-batch.log, NAME-serve.log (the drain
# and its metrics table), NAME-metrics.json, NAME-batch.fp and
# NAME-streamed.fp in the working directory for further checks.
set -euo pipefail

if [ "$#" -lt 3 ]; then
    echo "usage: $0 BIN_DIR NAME ACCEL FLAG..." >&2
    exit 2
fi
bin=$1
name=$2
accel=$3
shift 3
scripts=$(dirname "$0")

"$bin/gaia_run" "$@" --export-workload "$name-trace.csv" \
    --print-fingerprint --output-dir "$name-results" \
    | tee "$name-batch.log"
grep '^fingerprint ' "$name-batch.log" | awk '{print $2}' \
    > "$name-batch.fp"

"$bin/gaia_serve" "$@" --socket "$name.sock" --accel "$accel" \
    --verbose --metrics-out "$name-metrics.json" > "$name-serve.log" &
serve_pid=$!
"$scripts/serve_client.py" "$name.sock" "$name-trace.csv" \
    > "$name-streamed.fp"
wait "$serve_pid"
cat "$name-serve.log"

echo "batch:    $(cat "$name-batch.fp")"
echo "streamed: $(cat "$name-streamed.fp")"
diff "$name-batch.fp" "$name-streamed.fp"
