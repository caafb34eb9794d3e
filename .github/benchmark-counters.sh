#!/usr/bin/env bash
# The deterministic counters of the two library workloads and store_cycle,
# as a CI gate.
#
#   benchmark-counters.sh write                      print benchmark-counters.json (make bench-counters)
#   benchmark-counters.sh check <workload> <output>  compare one run's output with it
#
# feature_calls_per_round must be equal (the logical Verify/Refine sequence
# is part of the engine's contract) and tuples_built_per_round not higher.
# Both are engine counters that do not depend on the runner's CPU count
# (TestParallelStatsDeterminism); they do depend on the flags, which fix
# the corpora and the number of rounds, so the file is written and checked
# with the same ones.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
file="$here/benchmark-counters.json"
flags="--seed 1 --seconds 10 --trace 0"
workloads="join_converge extract_converge store_cycle"

# value <metric>: the metric's value on the line read from stdin.
value() { sed -n 's/.*"'"$1"'":{"value":\([0-9.e+]*\).*/\1/p'; }

case "${1:-}" in
write)
	echo "{"
	echo "\"flags\": \"$flags\","
	sep=","
	for w in $workloads; do
		line="$(bash "$here/../benchmark/run.sh" --workload "$w" $flags | tail -n 1)"
		[ "$w" = "${workloads##* }" ] && sep=""
		echo "\"$w\": {\"feature_calls_per_round\":{\"value\":$(value feature_calls_per_round <<<"$line")},\"tuples_built_per_round\":{\"value\":$(value tuples_built_per_round <<<"$line")}}$sep"
	done
	echo "}"
	;;
check)
	w="$2"
	want="$(grep "^\"$w\":" "$file")" || { echo "$w: no counters recorded in $file"; exit 1; }
	got="$(tail -n 1 "$3")"
	calls="$(value feature_calls_per_round <<<"$got")" wantcalls="$(value feature_calls_per_round <<<"$want")"
	built="$(value tuples_built_per_round <<<"$got")" wantbuilt="$(value tuples_built_per_round <<<"$want")"
	echo "$w: feature_calls_per_round $calls (recorded $wantcalls), tuples_built_per_round $built (recorded $wantbuilt)"
	[ -n "$calls" ] && [ -n "$wantcalls" ] && [ -n "$built" ] && [ -n "$wantbuilt" ] || { echo "$w: a counter is missing"; exit 1; }
	[ "$calls" = "$wantcalls" ] || { echo "$w: feature_calls_per_round moved; if intended, run make bench-counters"; exit 1; }
	awk -v g="$built" -v r="$wantbuilt" 'BEGIN { exit !(g <= r) }' ||
		{ echo "$w: tuples_built_per_round rose; if intended, run make bench-counters"; exit 1; }
	;;
*)
	echo "usage: $0 write | check <workload> <run output file>" >&2
	exit 2
	;;
esac
