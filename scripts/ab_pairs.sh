#!/bin/sh
# ab_pairs.sh — the benchmark's A/B protocol as one command: N pairs of
# runs of one workload, the parent revision against this checkout (working
# tree included), same seed within a pair, alternating which side runs
# first so that drift of the host lands on both.
#
#   ./scripts/ab_pairs.sh <workload> <parent-ref> [pairs=10] [bench-file]
#
# The parent is exported once with `git archive` into
# .bench_build/ab/<sha>/ (git-ignored; nothing is registered in .git) and
# built there by its own cmd/mmload/run.sh, exactly as the benchmark driver
# builds each side. Run length and metric directions are read from
# BENCHMARK.json, which this script never writes; AB_SECONDS overrides the
# length for a quick look.
#
# Output: per end-to-end metric the median [q1, q3] of each side and the
# pairs the change won, then every run's values, then failed operations.
#
# With a bench file (the fourth argument), the same figures
# are also merged into that BENCH_<pr>.json as two rows in the shape
# scripts/bench_gate.sh writes: "mmload/<workload>/before" (the parent) and
# "mmload/<workload>/after" (this checkout), each metric as its median with
# <metric>_q1 and <metric>_q3 beside it, plus pairs, attempted and failed;
# the after row also has <metric>_won. Rows of other workloads and the
# micro-benchmark set already in the file are kept. Needs jq.
set -eu
cd "$(dirname "$0")/.."

[ $# -ge 2 ] || { echo "usage: $0 <workload> <parent-ref> [pairs=10] [bench-file]" >&2; exit 2; }
workload=$1
sha=$(git rev-parse --short "$2^{commit}")
pairs=${3:-10}
bench=${4:-}
seconds=${AB_SECONDS:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
if [ -n "$bench" ] && ! command -v jq >/dev/null; then
	echo "$0: writing $bench needs jq" >&2
	exit 2
fi

parent="$PWD/.bench_build/ab/$sha"
if [ ! -d "$parent" ]; then
	mkdir -p "$parent"
	git archive "$sha" | tar -x -C "$parent"
fi
out="$PWD/.bench_build/ab/runs.$$"
mkdir -p "$out"
trap 'rm -rf "$out"' EXIT

# run <side> <dir> <seed>: one benchmark run; its result line (the JSON the
# command prints last) lands in $out/<side>.<seed>.
run() {
	echo "  pair $3: $1" >&2
	(cd "$2" && bash cmd/mmload/run.sh --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0) \
		>"$out/$1.$3.log" 2>&1 || echo "  pair $3: $1 exited non-zero (see failed operations below)" >&2
	grep '^{"correct"' "$out/$1.$3.log" | tail -n 1 >"$out/$1.$3"
}

echo "$workload: $pairs pairs, parent $sha vs this checkout, ${seconds}s runs" >&2
seed=1
while [ "$seed" -le "$pairs" ]; do
	if [ $((seed % 2)) -eq 1 ]; then
		run parent "$parent" "$seed"
		run change "$PWD" "$seed"
	else
		run change "$PWD" "$seed"
		run parent "$parent" "$seed"
	fi
	seed=$((seed + 1))
done

# value <side> <seed> <metric>
value() {
	sed -n 's/.*"'"$3"'":{"value":\([^,}]*\).*/\1/p' "$out/$1.$2"
}

# quartiles: "median q1 q3" of the numbers on stdin, by linear
# interpolation between order statistics; nothing when there are none.
quartiles() {
	sort -g | awk '
		{ v[NR] = $1 }
		function q(p,   pos, lo) { pos = 1 + p * (NR - 1); lo = int(pos); return lo >= NR ? v[NR] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo]) }
		END { if (NR) printf "%.6g %.6g %.6g\n", q(0.5), q(0.25), q(0.75) }'
}

# summary <median> <q1> <q3>: "median [q1, q3]"
summary() {
	if [ $# -eq 3 ]; then printf '%s [%s, %s]' "$1" "$2" "$3"; else printf 'no result'; fi
}

# rows <file> <metric> [<median> <q1> <q3>]: one metric's JSON members,
# none when the metric had no result
rows() {
	if [ $# -eq 5 ]; then
		printf '"%s":%s,"%s_q1":%s,"%s_q3":%s,' "$2" "$3" "$2" "$4" "$2" "$5" >>"$1"
	fi
}

: >"$out/before.json" >"$out/after.json"
printf '\n%-24s %-7s %-34s %-34s %s\n' metric better "parent $sha" change "pairs won"
# name and direction of every end-to-end metric, in BENCHMARK.json's order
awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
	on && /"name"/ { gsub(/[",]/, ""); name = $2 }
	on && /"better"/ { gsub(/[",]/, ""); print name, $2 }' BENCHMARK.json |
while read -r metric better; do
	won=0
	: >"$out/a" >"$out/b"
	seed=1
	while [ "$seed" -le "$pairs" ]; do
		a=$(value parent "$seed" "$metric")
		b=$(value change "$seed" "$metric")
		if [ -n "$a" ] && [ -n "$b" ]; then
			echo "$a" >>"$out/a"
			echo "$b" >>"$out/b"
			won=$((won + $(awk -v a="$a" -v b="$b" -v d="$better" 'BEGIN { print ((d == "higher" && b > a) || (d == "lower" && b < a)) ? 1 : 0 }')))
		fi
		seed=$((seed + 1))
	done
	# $qa and $qb stay unquoted below: each splits into median, q1 and q3.
	qa=$(quartiles <"$out/a")
	qb=$(quartiles <"$out/b")
	printf '%-24s %-7s %-34s %-34s %s/%s\n' "$metric" "$better" "$(summary $qa)" "$(summary $qb)" "$won" "$pairs"
	printf '%s parent: %s\n%s change: %s\n' "$metric" "$(tr '\n' ' ' <"$out/a")" "$metric" "$(tr '\n' ' ' <"$out/b")" >>"$out/runs"
	rows "$out/before.json" "$metric" $qa
	rows "$out/after.json" "$metric" $qb
	if [ -n "$qb" ]; then
		printf '"%s_won":%s,' "$metric" "$won" >>"$out/after.json"
	fi
done
printf '\nevery run, seeds 1..%s (odd seeds ran the parent first):\n' "$pairs"
cat "$out/runs"

printf '\nfailed operations:\n'
for side in parent change; do
	attempted=0 failed=0 incorrect=0
	seed=1
	while [ "$seed" -le "$pairs" ]; do
		line=$(cat "$out/$side.$seed")
		n=$(echo "$line" | sed -n 's/.*"attempted":\([0-9]*\).*/\1/p')
		attempted=$((attempted + ${n:-0}))
		n=$(echo "$line" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')
		failed=$((failed + ${n:-0}))
		case $line in *'"correct":true'*) ;; *) incorrect=$((incorrect + 1)) ;; esac
		seed=$((seed + 1))
	done
	echo "  $side: $failed of $attempted failed, $incorrect of $pairs runs not correct"
	file=before
	[ "$side" = change ] && file=after
	printf '"pairs":%s,"attempted":%s,"failed":%s,"incorrect":%s' "$pairs" "$attempted" "$failed" "$incorrect" >>"$out/$file.json"
done

if [ -n "$bench" ]; then
	[ -s "$bench" ] || echo '{}' >"$bench"
	jq -S --arg w "mmload/$workload" \
		--argjson before "{$(cat "$out/before.json")}" \
		--argjson after "{$(cat "$out/after.json")}" \
		'.[$w + "/before"] = {ns_per_op: 0, allocs_per_op: 0, bytes_per_op: 0, metrics: $before}
		| .[$w + "/after"] = {ns_per_op: 0, allocs_per_op: 0, bytes_per_op: 0, metrics: $after}' \
		"$bench" >"$out/bench.json"
	mv "$out/bench.json" "$bench"
	echo "rows mmload/$workload/before and /after written to $bench"
fi
