#!/bin/sh
# Every command, and every report subcommand, rejects a misspelled flag
# before doing any work: exit 2, the flag named on stderr, nothing on
# stdout, and no --out file written. The manifest and report paths need
# not exist — parsing must fail before anything is opened.
#
# Usage: cli_unknown_flag.sh <path-to-cadapt>
set -u
cli=${1:?usage: cli_unknown_flag.sh <path-to-cadapt>}
rm -f unk.out
fail=0
while IFS='|' read -r cmd args; do
  # shellcheck disable=SC2086
  $cli $cmd $args --jbos 4 > unk_stdout.txt 2> unk_stderr.txt
  status=$?
  if [ "$status" -ne 2 ] || ! grep -q -- '--jbos' unk_stderr.txt ||
     [ -s unk_stdout.txt ] || [ -e unk.out ]; then
    echo "cadapt $cmd $args --jbos 4: exit $status" >&2
    cat unk_stderr.txt >&2
    fail=1
  fi
done <<'LIST'
analytic|
render|
multiplies|
replay|--file missing.profile
save-worst|--file unk.out
trace|--out unk.out
mc|--checkpoint unk.out
parallel|--scale 1 --out unk.out
sweep|missing.manifest --out unk.out
report export|missing.json --out unk.out
report import|missing.json --out unk.out
report info|missing.json
report merge|missing.json --out unk.out
report bench|--cells 2 --out unk.out
serve|--spool unk.out --socket unk.sock
submit|missing.manifest --socket unk.sock
status|--socket unk.sock
cancel|--socket unk.sock --job job-1
results|--socket unk.sock --job job-1 --out unk.out
version|--json
help|
LIST
[ "$fail" -eq 0 ] && echo "unknown flags are usage errors: OK"
