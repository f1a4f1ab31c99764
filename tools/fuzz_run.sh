#!/usr/bin/env bash
# Time-boxed fuzzing session over the five harnesses. Splits the wall
# budget evenly across the harnesses and keeps running seeded mutation
# rounds (seed advances each round, so a longer box explores more) until
# the budget expires. A crashing input is left in the driver's
# .last_input dump next to the binary — move it into fuzz/regressions/
# so fuzz_smoke replays it forever.
#
# When the build dir has Clang libFuzzer binaries (fuzz_*_libfuzzer),
# they are used instead: coverage-guided fuzzing with -max_total_time,
# followed by -merge=1 to fold any coverage-novel inputs back into the
# checked-in corpus.
#
# Usage: tools/fuzz_run.sh [-t total-seconds] [-b build-dir] [harness...]
#   harness: any of xml_parser dtd xquery json node_image (default: all five)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUDGET=60
BUILD="$ROOT/build"
while getopts "t:b:" opt; do
  case "$opt" in
    t) BUDGET="$OPTARG" ;;
    b) BUILD="$OPTARG" ;;
    *) echo "usage: $0 [-t seconds] [-b build-dir] [harness...]" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))

HARNESSES=("$@")
[ "${#HARNESSES[@]}" -eq 0 ] && HARNESSES=(xml_parser dtd xquery json node_image)

kind_dir() {
  case "$1" in
    xml_parser) echo xml ;;
    node_image) echo image ;;
    *) echo "$1" ;;
  esac
}

PER=$((BUDGET / ${#HARNESSES[@]}))
[ "$PER" -lt 1 ] && PER=1
ITERS_PER_ROUND="${XBENCH_FUZZ_ITERS:-20000}"

for name in "${HARNESSES[@]}"; do
  kind="$(kind_dir "$name")"
  corpus="$ROOT/fuzz/corpus/$kind"
  regressions="$ROOT/fuzz/regressions/$kind"
  libfuzzer="$BUILD/fuzz/fuzz_${name}_libfuzzer"
  standalone="$BUILD/fuzz/fuzz_${name}"
  if [ -x "$libfuzzer" ]; then
    echo "fuzz_run: $name (libFuzzer, ${PER}s)"
    work="$BUILD/fuzz/work_$name"
    mkdir -p "$work"
    "$libfuzzer" -max_total_time="$PER" "$work" "$corpus" "$regressions"
    # Fold coverage-novel inputs back into the checked-in corpus.
    "$libfuzzer" -merge=1 "$corpus" "$work"
  elif [ -x "$standalone" ]; then
    echo "fuzz_run: $name (standalone driver, ${PER}s)"
    deadline=$(($(date +%s) + PER))
    seed=1
    while [ "$(date +%s)" -lt "$deadline" ]; do
      "$standalone" "$corpus" "$regressions" \
        --fuzz "$ITERS_PER_ROUND" --seed "$seed"
      seed=$((seed + 1))
    done
    echo "fuzz_run: $name finished $((seed - 1)) rounds of $ITERS_PER_ROUND"
  else
    echo "fuzz_run: no harness binary for $name under $BUILD/fuzz" >&2
    echo "          (configure with -DXBENCH_FUZZ=ON and build)" >&2
    exit 2
  fi
done

echo "fuzz_run: OK"
