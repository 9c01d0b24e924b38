#!/usr/bin/env bash
# Runs the whole benchmark: every workload in its own process, outputs
# checked against the sequential interpreter, every metric printed by
# name. Arguments are passed through, e.g.
#   benchmark/run.sh --seed 7 --traced
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run "$@"
