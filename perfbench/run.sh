#!/usr/bin/env bash
# Builds the program under test and the harness from source, then runs one
# benchmark invocation from the root of the checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Both builds share one target directory (CARGO_TARGET_DIR, default
# .bench_build). Outside a full checkout the script exits non-zero before
# printing any result.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates/core ]]; then
    echo "perfbench: run from the root of a dovado checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p dovado --bin dovado
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/perfbench" --dovado "$CARGO_TARGET_DIR/release/dovado" "$@"
