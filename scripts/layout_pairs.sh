#!/usr/bin/env bash
# A benchmark A/B that code layout cannot fool. Builds the repository
# benchmark for a parent revision and for the working tree, each with LLD's
# `--shuffle-sections=*=<seed>` at two seeds (four builds, each in a
# CARGO_TARGET_DIR of its own), then runs alternating parent/change pairs
# of `tender-benchmark --workload W --seconds S --trace 0`, drawing each
# pair's two layouts from the four combinations in turn. It prints, per
# end-to-end metric, both medians, how many pairs the change won, the
# parent's run spread (IQR over its runs) and each side's layout spread
# (the gap between the medians of its two layouts). A claimed gain must
# exceed the parent's run spread *and* its layout spread.
#
#   scripts/layout_pairs.sh [--parent REV] [--workload W] [--pairs N] [--seconds S]
#
# Defaults: --parent HEAD, --workload serve_pressure, --pairs 12,
# --seconds 22. Builds and per-run JSON go under $LAYOUT_PAIRS_DIR
# (default target/layout-pairs); rebuilding an unchanged side is quick.
set -euo pipefail
cd "$(dirname "$0")/.."
repo=$(pwd)

parent=HEAD workload=serve_pressure pairs=12 seconds=22
while [ $# -gt 0 ]; do
  case "$1" in
    --parent) parent=$2 ;;
    --workload) workload=$2 ;;
    --pairs) pairs=$2 ;;
    --seconds) seconds=$2 ;;
    *) echo "unknown argument $1" >&2; exit 2 ;;
  esac
  shift 2
done

base=${LAYOUT_PAIRS_DIR:-$repo/target/layout-pairs}
mkdir -p "$base"
base=$(cd "$base" && pwd)
runs="$base/runs-$workload"
rm -rf "$base/parent-src" "$runs"
mkdir -p "$base/parent-src" "$runs"
git archive "$parent" | tar -x -C "$base/parent-src"

build() { # <source dir> <side> <seed>
  local dir="$base/$2-seed-$3"
  RUSTFLAGS="-C link-arg=-Wl,--shuffle-sections=*=$3" CARGO_TARGET_DIR="$dir" \
    cargo build --release --offline -q --manifest-path "$1/benchmark/Cargo.toml"
  echo "$dir/release/tender-benchmark"
}

declare -A bin
for seed in 1 2; do
  bin[parent-$seed]=$(build "$base/parent-src" parent "$seed")
  bin[change-$seed]=$(build "$repo" change "$seed")
done
for side in parent change; do
  if cmp -s "${bin[$side-1]}" "${bin[$side-2]}"; then
    echo "$side: both seeds linked the same binary; the shuffle did not apply" >&2
    exit 1
  fi
done

run() { # <side> <seed> <pair>
  "${bin[$1-$2]}" --workload "$workload" --seconds "$seconds" --trace 0 \
    --out "$runs/$3-$1-$2.json" >/dev/null
}

for ((i = 0; i < pairs; i++)); do
  p_seed=$((i % 2 + 1)) c_seed=$((i / 2 % 2 + 1))
  if ((i % 2 == 0)); then
    run parent "$p_seed" "$i"; run change "$c_seed" "$i"
  else
    run change "$c_seed" "$i"; run parent "$p_seed" "$i"
  fi
  echo "pair $((i + 1))/$pairs done (parent layout $p_seed, change layout $c_seed)" >&2
done

python3 - "$repo/BENCHMARK.json" "$runs" "$workload" "$pairs" <<'EOF'
import glob, json, os, statistics, sys

spec, runs, workload, pairs = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
metrics = json.load(open(spec))["end_to_end"]

def value(path, name):
    return json.load(open(path))["workloads"][workload]["end_to_end"][name]["value"]

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

print(f"{workload}: {pairs} alternating pairs across 2 x 2 layouts")
print(f"{'metric':<20} {'parent':>12} {'change':>12} {'delta':>8} {'wins':>6}"
      f" {'parent IQR':>11} {'layout P':>9} {'layout C':>9}  verdict")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    side = {s: {} for s in ("parent", "change")}
    for path in glob.glob(os.path.join(runs, "*.json")):
        pair, s, seed = os.path.basename(path)[:-5].split("-")
        side[s][int(pair)] = (int(seed), value(path, name))
    wins = sum(
        (c < p) if lower else (c > p)
        for (_, p), (_, c) in ((side["parent"][i], side["change"][i]) for i in range(pairs))
    )
    med = {s: statistics.median(v for _, v in side[s].values()) for s in side}
    q1, q3 = quartiles([v for _, v in side["parent"].values()])

    def layout_spread(s):
        by_seed = [[v for seed, v in side[s].values() if seed == k] for k in (1, 2)]
        a, b = (statistics.median(x) for x in by_seed)
        return abs(a - b) / med[s] if med[s] else 0.0

    gap = med["change"] - med["parent"]
    rel = gap / med["parent"] if med["parent"] else 0.0
    better = gap < 0 if lower else gap > 0
    iqr = (q3 - q1) / med["parent"] if med["parent"] else 0.0
    lp, lc = layout_spread("parent"), layout_spread("change")
    if gap == 0:
        verdict = "equal"
    elif abs(rel) > max(iqr, lp):
        verdict = "better" if better else "WORSE"
    else:
        verdict = "inside spread"
    print(f"{name:<20} {med['parent']:>12.4g} {med['change']:>12.4g} {rel:>+8.1%}"
          f" {wins:>3}/{pairs:<2} {iqr:>11.1%} {lp:>9.1%} {lc:>9.1%}  {verdict}")
EOF
