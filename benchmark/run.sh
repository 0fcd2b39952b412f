#!/usr/bin/env bash
# The layer ledger's one command.  See README.md.
#
#   benchmark/run.sh                         every workload, untraced
#   benchmark/run.sh --traced                every workload, per-layer metrics
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                            one run, as the driver calls it
#   benchmark/run.sh --smoke                 tiny problems, a few seconds in all
#   benchmark/run.sh --selfcheck             two sets of ten seeds per workload,
#                                            judged against the bounds
#   benchmark/run.sh --emit-benchmark-json   print /BENCHMARK.json
#
# Builds --release --offline first (a no-op when nothing changed), then runs
# from wherever it was called; the last line of stdout of a single run is its
# result as one JSON object.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Reuse the repository's target/ unless the caller chose a directory (the
# driver sets .bench_build); cargo wants it absolute once we pass a manifest
# path from another directory.
target="${CARGO_TARGET_DIR:-$here/../target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

# --traced is the human spelling of the driver's --trace 1.
args=(--out-dir "$here/out")
for arg in "$@"; do
    case "$arg" in
        --traced) args+=(--trace 1) ;;
        *) args+=("$arg") ;;
    esac
done

exec "$target/release/bench" "${args[@]}"
