#!/usr/bin/env bash
# Perf regression gate. Runs the repository benchmark (perfbench) on a
# parent revision and on the working tree, in alternating pairs on the same
# machine, and fails when either side's perfbench fails (a correctness check
# broke) or when the working tree's median cpu_s or peak_heap_mb on any
# workload exceeds the parent's by more than that metric's BENCHMARK.json
# bound. It also prints each workload's digest on both sides of every pair,
# without gating on it. Run from anywhere in the repository:
#
#   bash .github/perf-gate.sh <parent-rev>
#
# The parent is built from a temporary git worktree. Every run's JSON line
# is appended to .bench_build/perf-gate/{parent,change}.jsonl.
set -euo pipefail

rev=${1:?usage: perf-gate.sh <parent-rev>}
pairs=5
args=(--workload all --seed 1 --seconds 5 --trace 0)

root=$(git rev-parse --show-toplevel)
cd "$root"
out="$root/.bench_build/perf-gate"
rm -rf "$out"
mkdir -p "$out"

parent=$(mktemp -d)
trap 'git worktree remove --force "$parent" || rm -rf "$parent"' EXIT
git worktree add --quiet --detach "$parent" "$rev"

# run <side> <dir> <pair>: one perfbench run, its JSON line kept.
run() {
	if ! (cd "$2" && bash perfbench/run.sh "${args[@]}") > "$out/$1.$3.log"; then
		echo "perf gate: perfbench failed on the $1 side (pair $3):" >&2
		tail -n 1 "$out/$1.$3.log" >&2
		exit 1
	fi
	tail -n 1 "$out/$1.$3.log" >> "$out/$1.jsonl"
}

for i in $(seq 1 $pairs); do
	echo "perf gate: pair $i of $pairs" >&2
	# Alternate which side goes first, so drift in the machine's speed
	# lands on both sides.
	if ((i % 2)); then
		run parent "$parent" "$i"
		run change "$root" "$i"
	else
		run change "$root" "$i"
		run parent "$parent" "$i"
	fi
done

# digests <side> <pair>: one "<workload> <digest>" line per workload of a
# run, from its log.
digests() {
	awk '$1 == "workload" { w = $2 } $1 == "digest:" { print w, $2 }' "$out/$1.$2.log"
}

# The digests are informational and never fail the gate: they show in the
# log whether a change kept every workload's counts unchanged.
for i in $(seq 1 $pairs); do
	paste -d ' ' <(digests parent "$i") <(digests change "$i") | awk -v i="$i" '{
		printf "pair %d %-7s digest: parent %s, change %s, digest %s\n", i, $1, $2, $4,
			($1 == $3 && $2 == $4) ? "same" : "CHANGED"
	}'
done

# median <side> <workload> <metric>: the metric's median over the side's
# runs.
median() {
	jq -r --arg k "$2.$3" '.metrics[$k].value' "$out/$1.jsonl" |
		sort -g | awk '{ v[NR] = $1 } END { print v[int((NR + 1) / 2)] }'
}

status=0
for m in cpu_s peak_heap_mb; do
	bound=$(jq -r --arg m "$m" '.end_to_end[] | select(.name == $m) | .bound' BENCHMARK.json)
	unit=$(jq -r --arg m "$m" '.end_to_end[] | select(.name == $m) | .unit' BENCHMARK.json)
	for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
		p=$(median parent "$w" "$m")
		c=$(median change "$w" "$m")
		if ! awk -v w="$w" -v m="$m" -v u="$unit" -v p="$p" -v c="$c" -v b="$bound" 'BEGIN {
			r = c / p
			printf "%-7s %s median: parent %.3f %s, change %.3f %s, ratio %.3f (fail > %.2f)\n", w, m, p, u, c, u, r, 1 + b
			exit r > 1 + b
		}'; then
			status=1
		fi
	done
done
if ((status)); then
	echo "perf gate: FAIL, cpu_s or peak_heap_mb regressed beyond its bound" >&2
else
	echo "perf gate: OK" >&2
fi
exit $status
