#!/usr/bin/env bash
# Build the release server and the benchmark, then run one benchmark pass.
#
#   bash svcbench/run.sh --workload <hot-compose|evolve|migrate> --seed <n> \
#       --seconds <s> --trace <0|1>
#
# Run from anywhere inside a checkout. Build output goes to
# $CARGO_TARGET_DIR (default: .bench_build at the checkout root), and so do
# the run's scratch catalogs (removed on exit) and, with --trace 1, the
# recorded spans (svcbench-out/).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$target"
target="$(cd "$target" && pwd)"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin mapcomp >&2
cargo build --release --offline --quiet --manifest-path "$root/svcbench/Cargo.toml" >&2
work="$target/svcbench-work/$$"
rm -rf "$work"
mkdir -p "$work"
trap 'rm -rf "$work"' EXIT
"$target/release/svcbench" --mapcomp "$target/release/mapcomp" --workdir "$work" \
    --out "$target/svcbench-out" "$@"
