#!/usr/bin/env bash
# The one command of the repository benchmark: builds the benchmark package
# (release, offline, its own workspace) and runs it. See README.md.
#
#   benchmark/run.sh [run] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#                    [--threads N] [--smoke] [--out PATH] [--trace-out PATH]
#   benchmark/run.sh compare OLD.json NEW.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
