#!/usr/bin/env bash
# Depth sweep on EURLex-4K: branch factors chosen so ~4000 labels genuinely
# split down to the target depth (K^depth * K >= L with room to spare).
set -euo pipefail

DATA="${XMC_DATA_DIR:-data/eurlex}"

run_depth() {
  local DEPTH="$1" BRANCH="$2"
  local OUT="repro/out/eurlex_depth$DEPTH"
  mkdir -p "$OUT"

  labelforest train \
    --data "$DATA/eurlex_train.txt" \
    --model "$OUT/model" \
    --trees 3 --branch "$BRANCH" --max-depth "$DEPTH" --repr input \
    --seed 42

  labelforest predict \
    --model "$OUT/model" \
    --data "$DATA/eurlex_test.txt" \
    --output "$OUT/predictions.txt" \
    --beam 10

  echo "== depth=$DEPTH branch=$BRANCH =="
  labelforest eval \
    --predictions "$OUT/predictions.txt" \
    --data "$DATA/eurlex_test.txt" \
    --train-data "$DATA/eurlex_train.txt" \
    --output "$OUT/report.txt"
}

run_depth 1 100
run_depth 2 16
run_depth 3 8
run_depth 4 6
