#!/usr/bin/env bash
# fuzz_smoke ctest body: replay the checked-in seed corpus and regression
# inputs through all five harnesses, then run a short deterministic
# mutation loop in each (XBENCH_FUZZ_ITERS iterations, fixed seed, so two
# runs of the suite execute byte-identical inputs).
#
# usage: run_smoke.sh CORPUS_DIR REGRESSIONS_DIR XML_BIN DTD_BIN XQUERY_BIN JSON_BIN
#                     IMAGE_BIN
set -euo pipefail

corpus="$1"
regressions="$2"
shift 2

iters="${XBENCH_FUZZ_ITERS:-200}"
kinds=(xml dtd xquery json image)

i=0
for bin in "$@"; do
  kind="${kinds[$i]}"
  i=$((i + 1))
  args=()
  [ -d "$corpus/$kind" ] && args+=("$corpus/$kind")
  [ -d "$regressions/$kind" ] && args+=("$regressions/$kind")
  if [ "${#args[@]}" -eq 0 ]; then
    echo "fuzz_smoke: no corpus for $kind under $corpus or $regressions" >&2
    exit 1
  fi
  "$bin" "${args[@]}" --fuzz "$iters" --seed 42
done

echo "fuzz_smoke: all harnesses OK (iters=$iters)"
