#!/usr/bin/env bash
# Builds fuzzyphased (from the workspace) and fuzzybench (this package)
# into one target directory, then runs fuzzybench with the arguments
# given. Run it from anywhere inside a checkout:
#
#   bash crates/bench/src/bin/fuzzybench/run.sh --workload table2 --seed 1 --seconds 20 --trace 0
#   bash crates/bench/src/bin/fuzzybench/run.sh run --seed 1 --trace
#
# CARGO_TARGET_DIR picks the target directory (default: target/ at the
# repository root); run outputs and scratch spools go under
# <target>/fuzzybench/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../../../../.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet -p fuzzyphase-serve --bin fuzzyphased
cargo build --release --quiet --manifest-path crates/bench/src/bin/fuzzybench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/fuzzybench" "$@"
