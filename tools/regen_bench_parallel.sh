#!/bin/sh
# Regenerate the committed BENCH_parallel.json headline artifact
# (docs/PARALLEL.md): `cadapt parallel --scale 1,2,4,8` — the symbolic
# engine at n = 4^8 plus the k = 12 adaptive-sort cell (4096 = 2^12
# keys, the cell trace replay cannot cover) — one parallel_env line
# (including the host's core count) plus one parallel_scale line per
# worker count with the deterministic simulated speedup, measured
# steals vs the Cole–Ramachandran-style bound, the extra-miss ratio,
# and the wall-clock cell numbers.
#
# Unlike the sweep artifacts this file is NOT byte-stable across hosts
# (wall fields and `cores` are honest measurements), so there is no
# --check mode; the deterministic fields (rounds, steals, sim_speedup,
# extra_miss_ratio) are what reviews compare. The acceptance bar is
# sim_speedup >= 2.5 at workers = 8.
#
# usage:
#   tools/regen_bench_parallel.sh <path-to-cadapt>
set -eu

cli=${1:?usage: regen_bench_parallel.sh <path-to-cadapt>}

repo_root=$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)
committed="$repo_root/BENCH_parallel.json"

"$cli" parallel --k 8 --scale 1,2,4,8 --sort adaptive \
  --profile uniform:4:64 --keys 4096 --block 8 --trials 8 \
  --seed 42 --json --out "$committed"
echo "wrote $committed"
