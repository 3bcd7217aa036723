#!/usr/bin/env bash
# Builds the benchmark (and the `serve` daemon it drives) from source,
# offline, then runs one workload:
#
#   bash densebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build). The
# last line of standard output is the run's JSON result. The benchmark
# pins itself (and the serve-mix daemon) to one CPU at a time.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path densebench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/densebench" "$@"
