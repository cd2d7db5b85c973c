#!/usr/bin/env bash
# Builds the benchmark from source, then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); `--trace 1` runs the allocation-counting binary.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
bin=perfbench
prev=
for arg in "$@"; do
    if [[ $prev == --trace && $arg == 1 ]]; then
        bin=perfbench-traced
    fi
    prev=$arg
done
exec "$CARGO_TARGET_DIR/release/$bin" "$@"
