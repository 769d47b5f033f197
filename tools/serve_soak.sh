#!/bin/sh
# Serve-lane crash soak (docs/SERVE.md): SIGKILL the daemon at random
# points mid-campaign, restart it over the same spool, and require that
# every resumed job still produces a report byte-identical to one-shot
# `cadapt sweep --no-timing` on the same manifest. This is the serve
# analogue of tools/chaos_sweep.sh — no cleanup handler runs on
# SIGKILL, so recovery leans entirely on the durable checkpoint layer.
# A last leg fails a job through its own file (io_fsync faults), then
# restarts the daemon and requires the resumed report to match too.
#
# Wired as the ctest case `cli_serve_soak` (label `serve`).
#
# usage:
#   tools/serve_soak.sh <path-to-cadapt> [workdir] [kills]
set -eu

cli=${1:?usage: serve_soak.sh <path-to-cadapt> [workdir] [kills]}
workdir=${2:-serve_soak_work}
kills=${3:-6}

gate_manifest=$(cd "$(dirname "$0")/.." && pwd)/bench/manifests/chaos_gate.manifest
rm -rf "$workdir"
mkdir -p "$workdir"
cd "$workdir"

daemon_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill -KILL "$daemon_pid" 2> /dev/null || true
}
trap cleanup EXIT INT TERM

cat > a.manifest << 'EOF'
name = soak_a
algos = 4:2:1
profiles = shuffled
k = 1..8
trials = 600
seed = 21
EOF
# NOTE: 8:2:1 cells blow up steeply with k (k=7 is ~17s, k=8 ~2min of
# CPU for 600 trials); keep k <= 6 so a single resumed cell never
# outlives the drain window.
cat > b.manifest << 'EOF'
name = soak_b
algos = 8:2:1
profiles = shuffled
k = 1..6
trials = 600
seed = 22
EOF
cat > c.manifest << 'EOF'
name = soak_c
algos = 4:2:1 8:2:1
profiles = shuffled
k = 1..6
trials = 400
seed = 23
EOF

# References: the bytes every resumed job must reproduce.
for m in a b c; do
  "$cli" sweep "$m.manifest" --no-timing --out "ref_$m.json" > /dev/null
done

start_daemon() {
  rm -f serve.sock
  "$cli" serve --spool spool --socket serve.sock --no-timing --jobs 2 \
    >> daemon.log 2>&1 &
  daemon_pid=$!
  tries=0
  while [ ! -S serve.sock ]; do
    tries=$((tries + 1))
    [ "$tries" -gt 100 ] && { echo "daemon never listened" >&2; exit 1; }
    kill -0 "$daemon_pid" 2> /dev/null || {
      echo "daemon died on start: $(cat daemon.log)" >&2; exit 1; }
    sleep 0.1
  done
}

start_daemon

# Three tenants, submitted once; the daemon owns them across restarts.
"$cli" submit a.manifest --socket serve.sock --client alice --weight 2 \
  > /dev/null
"$cli" submit b.manifest --socket serve.sock --client bob > /dev/null
"$cli" submit c.manifest --socket serve.sock --client carol > /dev/null

all_done() {
  out=$("$cli" status --socket serve.sock 2> /dev/null) || return 1
  [ "$(printf '%s\n' "$out" | grep -c '"state":"done"')" -eq 3 ]
}

seed=${SOAK_SEED:-$$}
i=0
while [ "$i" -lt "$kills" ]; do
  i=$((i + 1))
  # Deterministic-ish pseudo-random dwell in [0.05s, 0.50s].
  seed=$(((seed * 1103515245 + 12345) % 2147483648))
  dwell=$((seed % 10))
  sleep "0.$(printf '%02d' $((5 + dwell * 5)))"
  if all_done; then
    echo "soak: all jobs finished before kill #$i; stopping early"
    break
  fi
  kill -KILL "$daemon_pid"
  wait "$daemon_pid" 2> /dev/null || true
  daemon_pid=""
  echo "soak: SIGKILL #$i delivered mid-campaign"
  start_daemon
done

# Let the final incarnation drain everything. The window is sized for
# sanitizer builds (~15-20x slower cells), not the release tree.
tries=0
until all_done; do
  tries=$((tries + 1))
  [ "$tries" -gt 2400 ] && { echo "jobs never drained" >&2; exit 1; }
  kill -0 "$daemon_pid" 2> /dev/null || {
    echo "daemon died draining: $(cat daemon.log)" >&2; exit 1; }
  sleep 0.1
done

# The headline invariant: every report, assembled across an arbitrary
# number of crash/restart cycles, is byte-identical to its reference.
"$cli" results --socket serve.sock --job job-1 --out got_a.json \
  2> /dev/null
"$cli" results --socket serve.sock --job job-2 --out got_b.json \
  2> /dev/null
"$cli" results --socket serve.sock --job job-3 --out got_c.json \
  2> /dev/null
cmp ref_a.json got_a.json
cmp ref_b.json got_b.json
cmp ref_c.json got_c.json

# One more restart over the finished spool: terminal jobs must come
# back as history, with the same bytes served from disk.
kill "$daemon_pid"
wait "$daemon_pid" || { echo "daemon exited non-zero" >&2; exit 1; }
daemon_pid=""
start_daemon
"$cli" results --socket serve.sock --job job-2 --out again_b.json \
  2> /dev/null
cmp ref_b.json again_b.json

# A job whose own file refused a commit (docs/SERVE.md, "Crash safety"):
# the daemon reports it failed, but its file holds no job_done line, and
# the file wins: after a restart the job resumes to its one-shot bytes.
await_state() {  # job state
  tries=0
  until "$cli" status --socket serve.sock --job "$1" 2> /dev/null |
    grep -q "\"state\":\"$2\""; do
    tries=$((tries + 1))
    [ "$tries" -gt 2400 ] && { echo "$1 never reached $2" >&2; exit 1; }
    sleep 0.1
  done
}
"$cli" sweep "$gate_manifest" --no-timing --out ref_gate.json > /dev/null
"$cli" submit "$gate_manifest" --socket serve.sock --client dave \
  --fault io_fsync=0.3 > /dev/null
await_state job-4 failed
kill "$daemon_pid"
wait "$daemon_pid" || { echo "daemon exited non-zero" >&2; exit 1; }
daemon_pid=""
if tail -n 1 spool/job-4.ckpt | grep -q '"type":"job_done"'; then
  echo "a file that refused a commit recorded an outcome" >&2; exit 1
fi
start_daemon
await_state job-4 done
"$cli" results --socket serve.sock --job job-4 --out got_gate.json \
  2> /dev/null
cmp ref_gate.json got_gate.json
kill "$daemon_pid"
wait "$daemon_pid" || { echo "daemon exited non-zero" >&2; exit 1; }
daemon_pid=""

echo "soak: $i kill(s), every report byte-identical after resume, and a" \
  "job failed by its own file resumed to its one-shot bytes"
