#!/bin/sh
# Serve-lane end-to-end drill (docs/SERVE.md): a real daemon, three
# concurrent ratio tenants and a sort tenant (trace_replay, one capture
# per program), and the headline invariant checked with cmp — a job's
# report, fetched over the socket, is byte-identical to one-shot
# `cadapt sweep --no-timing` on the same manifest. Also exercises the
# spool (one file per job) and a restart that serves a finished job's
# cell lines and bytes from it, the cancel path (truncated report, exit
# codes), status/hello, the reaping of finished connection threads
# (daemon VmSize stays flat), and a drain that a half-line client cannot
# block.
#
# Wired as the ctest case `cli_serve_smoke` (label `serve`); run it
# under the address and thread sanitizer presets too.
#
# usage:
#   tools/serve_smoke.sh <path-to-cadapt> [workdir]
set -eu

cli=${1:?usage: serve_smoke.sh <path-to-cadapt> [workdir]}
workdir=${2:-serve_smoke_work}

rm -rf "$workdir"
mkdir -p "$workdir"
cd "$workdir"

daemon_pid=""
holder_pid=""
cleanup() {
  [ -n "$holder_pid" ] && kill "$holder_pid" 2> /dev/null || true
  [ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2> /dev/null || true
}
trap cleanup EXIT INT TERM

cat > a.manifest << 'EOF'
name = smoke_a
algos = 4:2:1
profiles = shuffled
k = 1..6
trials = 8
seed = 5
EOF
cat > b.manifest << 'EOF'
name = smoke_b
algos = 8:2:1
profiles = shuffled
k = 1..5
trials = 6
seed = 7
EOF
cat > c.manifest << 'EOF'
name = smoke_c
algos = 4:2:1 8:2:1
profiles = shuffled
k = 1..4
trials = 4
seed = 9
EOF
cat > d.manifest << 'EOF'
name = smoke_sort
workload = sort
sorts = adaptive funnel merge2
profiles = const:32 uniform:4:64
policies = lru clock
keys = 2048
block = 8
trials = 4
seed = 5
trace_replay = 1
EOF

# One-shot references first (the daemon must reproduce these bytes).
for m in a b c d; do
  "$cli" sweep "$m.manifest" --no-timing --out "ref_$m.json" > /dev/null
done

start_daemon() {
  rm -f serve.sock
  "$cli" serve --spool spool --socket serve.sock --no-timing \
    >> daemon.log 2>&1 &
  daemon_pid=$!
  # Wait for the socket (the daemon resumes its spool before listening).
  tries=0
  while [ ! -S serve.sock ]; do
    tries=$((tries + 1))
    [ "$tries" -gt 100 ] && { echo "daemon never listened" >&2; exit 1; }
    kill -0 "$daemon_pid" 2> /dev/null || {
      echo "daemon died: $(cat daemon.log)" >&2; exit 1; }
    sleep 0.1
  done
}

# Graceful shutdown: SIGTERM drains and exits 0, within a bounded wait.
# The 3 s bound stays well below the daemon's 10 s request-line read
# deadline, which would otherwise close the half-line client's
# connection below and hide a drain that does not shut it down.
stop_daemon() {
  kill "$daemon_pid"
  tries=0
  while kill -0 "$daemon_pid" 2> /dev/null; do
    tries=$((tries + 1))
    if [ "$tries" -gt 30 ]; then
      echo "daemon did not drain within 3 s of SIGTERM" >&2
      exit 1
    fi
    # A zombie has exited; `wait` below reaps it.
    grep -q '^State:.*Z' "/proc/$daemon_pid/status" 2> /dev/null && break
    sleep 0.1
  done
  wait "$daemon_pid" || { echo "daemon exited non-zero" >&2; exit 1; }
  daemon_pid=""
}

start_daemon

# Four tenants with distinct weights, submitted concurrently.
"$cli" submit a.manifest --socket serve.sock --client alice --weight 2 \
  | grep -q '"job":"job-1"'
"$cli" submit b.manifest --socket serve.sock --client bob \
  | grep -q '"job":"job-2"'
"$cli" submit c.manifest --socket serve.sock --client carol \
  | grep -q '"job":"job-3"'
"$cli" submit d.manifest --socket serve.sock --client erin \
  | grep -q '"job":"job-4"'

# Stream every report; each must be byte-identical to its reference —
# the shared pool and tenant interleaving must not leak into artifacts.
"$cli" results --socket serve.sock --job job-1 --out got_a.json \
  2> /dev/null
"$cli" results --socket serve.sock --job job-2 --out got_b.json \
  2> /dev/null
"$cli" results --socket serve.sock --job job-3 --out got_c.json \
  2> /dev/null
"$cli" results --socket serve.sock --job job-4 --out got_d.json \
  2> /dev/null
cmp ref_a.json got_a.json
cmp ref_b.json got_b.json
cmp ref_c.json got_c.json
cmp ref_d.json got_d.json

# results to stdout carries ONLY the report bytes (status goes to
# stderr) — shell-pipeline byte identity.
"$cli" results --socket serve.sock --job job-1 2> /dev/null > pipe_a.json
cmp ref_a.json pipe_a.json

# status: every job done, one line each.
"$cli" status --socket serve.sock > status.txt
[ "$(grep -c '"state":"done"' status.txt)" -eq 4 ]

# The spool holds one file per job. A restarted daemon serves a finished
# job from that file alone: every cell line, then the same bytes.
if [ "$(ls spool | wc -l)" -ne 4 ]; then
  echo "spool holds" $(ls spool) "— not one file per job" >&2
  exit 1
fi
stop_daemon
start_daemon
"$cli" results --socket serve.sock --job job-1 --progress \
  --out restarted_a.json 2> progress_a.txt
cells=$(grep -c '"type":"sweep_cell"' progress_a.txt || true)
if [ "$cells" -ne 6 ]; then
  echo "restarted daemon streamed $cells of job-1's 6 cell lines" >&2
  exit 1
fi
cmp ref_a.json restarted_a.json
"$cli" results --socket serve.sock --job job-4 --out restarted_d.json \
  2> /dev/null
cmp ref_d.json restarted_d.json

# Finished connections are reaped: 200 status round trips must not leave
# 200 unjoined handler threads (an 8 MiB stack mapping each) behind.
vm_kb() { awk '/^VmSize:/ { print $2 }' "/proc/$daemon_pid/status"; }
vm_before=$(vm_kb)
i=0
while [ "$i" -lt 200 ]; do
  "$cli" status --socket serve.sock > /dev/null
  i=$((i + 1))
done
vm_growth_mb=$(( ($(vm_kb) - vm_before) / 1024 ))
if [ "$vm_growth_mb" -ge 100 ]; then
  echo "daemon VmSize grew ${vm_growth_mb} MB over 200 status calls" >&2
  exit 1
fi

# cancel on a heavy job: accepted, then a truncated report still lands.
cat > slow.manifest << 'EOF'
name = smoke_slow
algos = 4:2:1
profiles = shuffled
k = 1..12
trials = 20000
seed = 11
EOF
"$cli" submit slow.manifest --socket serve.sock --client dave \
  | grep -q job-5
"$cli" cancel --socket serve.sock --job job-5 | grep -q '"type":"ok"'
"$cli" results --socket serve.sock --job job-5 --out got_slow.json \
  2> /dev/null
grep -q '"truncated":true' got_slow.json
grep -q '"truncate_reason":"external"' got_slow.json

# Error taxonomy over the wire: unknown job = input error (exit 3);
# cancelling a finished job is also 3.
status=0; "$cli" status --socket serve.sock --job job-99 || status=$?
[ "$status" -eq 3 ]
status=0; "$cli" cancel --socket serve.sock --job job-5 || status=$?
[ "$status" -eq 3 ]
# A malformed manifest is rejected with exit 3 and creates NO job.
printf 'name = bad\nalgoz = 4:2:1\n' > bad.manifest
status=0
"$cli" submit bad.manifest --socket serve.sock 2> /dev/null || status=$?
[ "$status" -eq 3 ]
"$cli" status --socket serve.sock > status2.txt
if grep -q job-6 status2.txt; then
  echo "rejected manifest still created a job" >&2
  exit 1
fi

# A client that sends half a request line and waits must not block the
# drain: the daemon shuts its connection down. (The drill needs python3
# for a raw socket; without it, the drain is still checked below.)
if command -v python3 > /dev/null; then
  python3 -c '
import socket, sys, time
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect("serve.sock")
s.sendall(b"{\"type\":\"hel")
open("half_sent", "w").close()
time.sleep(60)
' &
  holder_pid=$!
  tries=0
  while [ ! -f half_sent ]; do
    tries=$((tries + 1))
    [ "$tries" -gt 100 ] && { echo "half-line client never sent" >&2; exit 1; }
    sleep 0.1
  done
  # Connections are accepted in order: once this answers, the half-line
  # connection has a handler, blocked reading the rest of its line.
  "$cli" status --socket serve.sock > /dev/null
fi

stop_daemon

echo "serve smoke: 4 tenants byte-identical, restart + cancel + errors OK"
