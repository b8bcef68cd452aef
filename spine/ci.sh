#!/usr/bin/env bash
# spine's own CI: build offline, run the unit tests (which include the
# BENCHMARK.json <-> `spine list` name check), then every workload once
# at --quick (one set-up, one-second timed section, same rows, same
# correctness gate). A script inside spine/ because .github/ is outside
# the benchmark's paths.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
cargo test --offline

start=$(date +%s)
cargo run --release --offline -- run --quick
elapsed=$(( $(date +%s) - start ))
echo "spine run --quick: ${elapsed}s"
if [ "$elapsed" -ge 40 ]; then
    echo "spine run --quick took ${elapsed}s (limit 40s)" >&2
    exit 1
fi
