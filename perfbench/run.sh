#!/usr/bin/env bash
# Builds the release `hybridc` and the benchmark harness from the source tree
# this directory sits in, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload gallery-cold --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f Cargo.toml || ! -d crates/bench || ! -d examples/stencils ]]; then
    echo "perfbench: run from a hybrid-hexagonal source tree (Cargo.toml, crates/, examples/stencils/ missing)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet -p hybrid_bench --bin hybridc
cargo build --release --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" --hybridc "$CARGO_TARGET_DIR/release/hybridc" "$@"
