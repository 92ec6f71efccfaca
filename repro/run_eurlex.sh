#!/usr/bin/env bash
# Train and evaluate the input-representation ensemble on EURLex-4K.
set -euo pipefail

DATA="${XMC_DATA_DIR:-data/eurlex}"
OUT=repro/out/eurlex_input
mkdir -p "$OUT"

labelforest train \
  --data "$DATA/eurlex_train.txt" \
  --model "$OUT/model" \
  --trees 3 --branch 100 --max-depth 1 --repr input \
  --seed 42

labelforest predict \
  --model "$OUT/model" \
  --data "$DATA/eurlex_test.txt" \
  --output "$OUT/predictions.txt" \
  --beam 10

labelforest eval \
  --predictions "$OUT/predictions.txt" \
  --data "$DATA/eurlex_test.txt" \
  --train-data "$DATA/eurlex_train.txt" \
  --output "$OUT/report.txt"
