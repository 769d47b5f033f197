#!/bin/sh
# Chaos harness (docs/ROBUSTNESS.md, "Durability & crash safety"): prove
# the crash-kill bit-identity guarantee by actually killing the process.
#
# The campaign is a `cadapt` command line — by default a sweep of
# bench/manifests/chaos_gate.manifest, or any COMMAND that takes
# --checkpoint, --resume, --jobs, --no-timing and the hidden
# --crash-after (`sweep MANIFEST --out F`, `mc --trials 32 ...`).
# For N = 1, 2, 3, ... it runs with `--crash-after N`, which arms
# robust::CrashPoint to persist a TORN PREFIX of the Nth durable write
# (checkpoint header, per-cell or per-chunk commit, or a report's atomic
# temp file) and raise SIGKILL — a faithful power cut, no unwinding, no
# flushes. After every kill, `--resume` from the wounded checkpoint must
# complete with stdout — and, when the command writes chaos_out.json,
# that file — byte-identical to an uninterrupted reference run, and its
# checkpoint must hold no (cell, trial) line twice. Once N
# passes the campaign's total durable-write count the run completes
# cleanly; that run must ALSO match the reference, and the loop stops —
# every crash point was covered, none skipped.
#
# Wired as the ctest cases `cli_chaos_sweep`, `cli_chaos_sweep_midcell`
# and `cli_chaos_mc` (label
# `chaos`, bounded TIMEOUT); run them under the address and thread
# sanitizer presets too — torn-tail recovery bugs love to hide on the
# unwind-free kill path.
#
# usage:
#   tools/chaos_sweep.sh <path-to-cadapt> [workdir [COMMAND ARGS...]]
set -eu

cli=${1:?usage: chaos_sweep.sh <path-to-cadapt> [workdir [COMMAND...]]}
workdir=${2:-chaos_work}
shift
[ "$#" -gt 0 ] && shift
if [ "$#" -eq 0 ]; then
  repo_root=$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)
  set -- sweep "$repo_root/bench/manifests/chaos_gate.manifest" \
    --out chaos_out.json
fi

mkdir -p "$workdir"
cd "$workdir"

# same NAME: stdout NAME.txt (and chaos_out.json, when the command
# writes one) equal the reference.
same() {
  cmp chaos_ref.txt "$1.txt" || return 1
  if [ -e chaos_ref.json ]; then cmp chaos_ref.json chaos_out.json; fi
}

# The uninterrupted reference (--no-timing: the byte-identity contract).
rm -f chaos_out.json chaos_ref.json
"$cli" "$@" --no-timing > chaos_ref.txt
if [ -e chaos_out.json ]; then mv chaos_out.json chaos_ref.json; fi

max=16  # > total durable writes of each campaign; the loop exits early
n=1
while [ "$n" -le "$max" ]; do
  rm -f chaos.ckpt chaos_out.json
  status=0
  # --jobs 1 keeps the Nth-write placement deterministic run to run.
  "$cli" "$@" --no-timing --jobs 1 --checkpoint chaos.ckpt \
    --crash-after "$n" > chaos_run.txt 2> chaos_err.txt || status=$?

  if [ "$status" -eq 0 ]; then
    # N exceeded the campaign's durable writes: a clean completion, and
    # the coverage stop condition — every earlier N really crashed.
    same chaos_run
    echo "chaos: $((n - 1)) crash points survived; clean completion at $n"
    exit 0
  fi
  if [ "$status" -lt 128 ]; then
    echo "crash point $n: expected SIGKILL (status >= 128) or clean" \
         "completion, got exit $status" >&2
    exit 1
  fi

  # Killed mid-write. Resume from the (possibly torn) checkpoint; the
  # finished run must match the reference byte for byte.
  "$cli" "$@" --no-timing --checkpoint chaos.ckpt --resume > chaos_resumed.txt
  if ! same chaos_resumed; then
    echo "crash point $n: resumed run differs from the reference" >&2
    exit 1
  fi
  twice=$(sed -n 's/^{"type":"trial_[a-z]*","trial":\([0-9]*\),.*"cell":\([0-9]*\)}$/\2 \1/p' \
    chaos.ckpt | sort | uniq -d | head -n 1)
  if [ -n "$twice" ]; then
    echo "crash point $n: (cell, trial) ($twice) committed twice" >&2
    exit 1
  fi
  n=$((n + 1))
done

echo "chaos: no clean completion within $max crash points —" \
     "is --crash-after arming more writes than expected?" >&2
exit 1
