#!/bin/sh
# `cadapt mc` is a one-cell campaign: named with the same manifest
# tokens, it runs exactly the trials `cadapt sweep` runs for that cell,
# so the mean it prints equals the mean in the one-cell manifest's
# report, to the printed digits. Ratio cells take seed = manifest seed
# + k; a sort manifest's first cell takes the manifest seed.
#
# usage (from a scratch directory; writes mc_cell_* files there):
#   tests/mc_one_cell_parity.sh <path-to-cadapt>
set -eu

cli=${1:?usage: mc_one_cell_parity.sh <path-to-cadapt>}

# check NAME DIGITS MC_LABEL MANIFEST_TEXT MC_ARGS...: sweep the manifest,
# run mc, and require the same DIGITS-decimal mean from both.
check() {
  name=$1 digits=$2 label=$3 manifest=$4
  shift 4
  printf "$manifest" > "mc_cell_$name.manifest"
  "$cli" sweep "mc_cell_$name.manifest" --no-timing \
    --out "mc_cell_$name.json" > /dev/null
  swept=$(sed -n 's/.*,"mean":\([^,]*\),.*/\1/p' "mc_cell_$name.json")
  swept=$(printf "%.${digits}f" "$swept")
  mc=$("$cli" mc "$@" | sed -n "s/.*$label: \([0-9.]*\) .*/\1/p")
  echo "$name: sweep mean $swept, mc mean $mc"
  test -n "$mc" && test "$mc" = "$swept"
}

check ratio 4 "mean ratio" \
  'name = mc_cell\nalgos = 8:4:1\nprofiles = iid:bimodal:4:4096:0.02\nk = 4\ntrials = 16\nseed = 3\n' \
  --profile iid:bimodal:4:4096:0.02 --kmax 4 --seed 7 --trials 16
check sort 2 "mean I\/Os" \
  'name = mc_cell\nworkload = sort\nsorts = funnel\nprofiles = uniform:4:64\nkeys = 2048\ntrials = 4\nseed = 9\n' \
  --sort funnel --profile uniform:4:64 --keys 2048 --seed 9 --trials 4
echo "mc is a one-cell sweep: OK"
