#!/usr/bin/env bash
# Headline experiment sweeps. Writes CSVs under results/.
set -euo pipefail

SEED="${SEED:-20240901}"
TRIALS="${TRIALS:-100000}"
THREADS="${THREADS:-4}"
OUT="${OUT:-results}"
mkdir -p "$OUT"

# Error rate vs positive-vote count (U=25, 10 dB), flat and 5-tap uniform.
for K in 8 16 32; do
  airmv cer --seed "$SEED" --k "$K" --u 25 --snr 10 --l-e 1 \
    --methods m1,m2,m3,goldenbaum,obda,obda_phase,obda_no_tci \
    --trials "$TRIALS" --threads "$THREADS" --out "$OUT/cer_le1_k${K}.csv"
  airmv cer --seed "$SEED" --k "$K" --u 25 --snr 10 --l-e 5 --rho 1.0 \
    --methods m1,m2,m3,goldenbaum,obda,obda_phase,obda_no_tci \
    --trials "$TRIALS" --threads "$THREADS" --out "$OUT/cer_le5_k${K}.csv"
done

# Error rate vs SNR at a fixed split (N+=22 of 25, K=16).
for LE in 1 5; do
  airmv snr --seed "$SEED" --k 16 --u 25 --n-plus 22 --l-e "$LE" --rho 1.0 \
    --snr 0,2,4,6,8,10,12,14,16 \
    --methods m1,m2,m3,goldenbaum,obda,obda_phase,obda_no_tci \
    --trials "$TRIALS" --threads "$THREADS" --out "$OUT/snr_le${LE}_k16.csv"
done

# PMEPR distributions (DFT-spread) and the contiguous-subcarrier value.
airmv pmepr --seed "$SEED" --k 8,32 --methods m1,m2,m3 \
  --codewords 10000 --out "$OUT/pmepr.csv"

# Resources per MV computation and the separation baseline.
airmv resources --seed "$SEED" --k 32 --l-e 5 --u 20 --methods m1,m2,m3 \
  --out "$OUT/resources.csv"

# Distributed median RMSE over rounds (U=25, 10 dB).
for LE in 1 5; do
  airmv rmse --seed "$SEED" --k 8,32,128 --u 25 --snr 10 --l-e "$LE" --rho 1.0 \
    --methods ideal,m1,m2,m3,goldenbaum,obda,obda_phase \
    --rounds 4000 --realizations 100 --out "$OUT/rmse_le${LE}.csv"
done

echo "results written to $OUT/"
