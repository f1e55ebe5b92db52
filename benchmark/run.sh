#!/bin/sh
# The one command: every workload in its own child process, every reply
# checked, every metric printed with its unit, benchmark/out/results.json.
#   benchmark/run.sh [--seed N] [--seconds S] [--quick]
cd "$(dirname "$0")/.." || exit 1
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run "$@"
