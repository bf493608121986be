#!/usr/bin/env bash
# Layout invariance: the experiment suite's stdout must not depend on where
# the linker puts code. Builds `all_experiments` three times — the default
# link, then input sections shuffled with seeds 1 and 2, each in a target
# directory of its own — and byte-compares the `TENDER_FAST=1` stdout of
# each shuffled build against the default build's. A shuffled binary that
# equals the default one proves nothing, so that fails too.
#
#   scripts/layout_check.sh        # from anywhere inside the repository
set -euo pipefail
cd "$(dirname "$0")/.."

target=${CARGO_TARGET_DIR:-target}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

run_suite() { # <target dir> <stdout file>
  CARGO_TARGET_DIR="$1" cargo build --release --offline -q -p tender-bench --bin all_experiments
  TENDER_FAST=1 "$1/release/all_experiments" >"$2" 2>/dev/null
}

run_suite "$target" "$out/default.txt"
for seed in 1 2; do
  dir="$target/layout-seed-$seed"
  RUSTFLAGS="-C link-arg=-Wl,--shuffle-sections=*=$seed" run_suite "$dir" "$out/seed-$seed.txt"
  if cmp -s "$target/release/all_experiments" "$dir/release/all_experiments"; then
    echo "layout seed $seed linked the default binary: the shuffle did not apply" >&2
    exit 1
  fi
  cmp "$out/default.txt" "$out/seed-$seed.txt"
  echo "layout seed $seed: stdout identical to the default build"
done
