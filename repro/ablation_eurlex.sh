#!/usr/bin/env bash
# Repeat the EURLex-4K run with the output and joint label representations.
set -euo pipefail

DATA="${XMC_DATA_DIR:-data/eurlex}"

for REPR in output joint; do
  OUT="repro/out/eurlex_$REPR"
  mkdir -p "$OUT"

  labelforest train \
    --data "$DATA/eurlex_train.txt" \
    --model "$OUT/model" \
    --trees 3 --branch 100 --max-depth 1 --repr "$REPR" \
    --seed 42

  labelforest predict \
    --model "$OUT/model" \
    --data "$DATA/eurlex_test.txt" \
    --output "$OUT/predictions.txt" \
    --beam 10

  echo "== repr=$REPR =="
  labelforest eval \
    --predictions "$OUT/predictions.txt" \
    --data "$DATA/eurlex_test.txt" \
    --train-data "$DATA/eurlex_train.txt" \
    --output "$OUT/report.txt"
done
