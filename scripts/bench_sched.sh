#!/bin/sh
# bench_sched.sh — scheduler-throughput regression guard.
#
# Runs TestSchedThroughputArtifact into a temporary file and compares
# the fresh actions/sec numbers against the committed
# BENCH_sched_throughput.json; fails if either mode regressed more
# than 10%, or if the Sim arm's heap allocations per action rose at
# all (the count is deterministic in Sim, so any increase is a real
# change). Run from the repository root (make bench-sched-guard).
# Uses only sh and the go toolchain. Timing is meaningless under the
# race detector, so the guard always runs without it.
set -eu

artifact=BENCH_sched_throughput.json
if [ ! -f "$artifact" ]; then
    echo "missing $artifact — run 'make bench-sched' once and commit it" >&2
    exit 1
fi

fresh=$(mktemp)
trap 'rm -f "$fresh"' EXIT INT TERM

SCHED_BENCH_OUT="$fresh" go test -run 'TestSchedThroughputArtifact$' -count=1 .

# jq-free JSON field extraction: the artifact is generated by the test
# with one "key": value pair per line.
field() { # file key
    sed -n "s/.*\"$2\": \\([0-9.]*\\).*/\\1/p" "$1" | head -n 1
}

fail=0
for key in sim_actions_per_sec real_actions_per_sec; do
    committed=$(field "$artifact" "$key")
    now=$(field "$fresh" "$key")
    if [ -z "$committed" ] || [ -z "$now" ]; then
        echo "FAIL $key: missing from artifact or fresh run" >&2
        fail=1
        continue
    fi
    # Pass while now >= 0.9 * committed (integer math on rounded values).
    ok=$(awk -v n="$now" -v c="$committed" 'BEGIN { print (n >= 0.9 * c) ? 1 : 0 }')
    pct=$(awk -v n="$now" -v c="$committed" 'BEGIN { printf "%.1f", 100 * n / c }')
    if [ "$ok" = 1 ]; then
        echo "ok   $key: $now vs committed $committed (${pct}%)"
    else
        echo "FAIL $key: $now vs committed $committed (${pct}% < 90%)"
        fail=1
    fi
done

# Allocations per action: no tolerance.
key=sim_allocs_per_action
committed=$(field "$artifact" "$key")
now=$(field "$fresh" "$key")
if [ -z "$committed" ] || [ -z "$now" ]; then
    echo "FAIL $key: missing from artifact or fresh run" >&2
    fail=1
elif [ "$(awk -v n="$now" -v c="$committed" 'BEGIN { print (n <= c) ? 1 : 0 }')" = 1 ]; then
    echo "ok   $key: $now vs committed $committed"
else
    echo "FAIL $key: $now vs committed $committed (any increase fails)"
    fail=1
fi

exit $fail
