#!/bin/sh
# size.sh — the size figures ROADMAP.md tracks, from the files git
# tracks (so build output and caches never count). Run from anywhere:
#
#   ./scripts/size.sh
#
# Lines are raw `wc -l` lines, comments and blanks included, which is how
# ROADMAP's baselines were taken. cmd/mmload is the benchmark and is left
# out of the non-test figure; its tests are left out of the test figure.
set -eu
cd "$(dirname "$0")/.."

lines() { # lines <git pathspec>...: total lines of the matching tracked files
	git ls-files -z -- "$@" | xargs -0 cat | wc -l | tr -d ' '
}

# fields <file> [type]: independently settable fields of the file's `type
# <type> struct` (default Config), counting `A, B T` as two.
fields() {
	awk -v t="${2:-Config}" '
		$0 ~ "^type " t " struct \\{" { in_cfg = 1; next }
		in_cfg && /^}/ { in_cfg = 0 }
		in_cfg && /^\t[A-Za-z]/ {
			for (i = 1; i <= NF; i++) { n++; if ($i !~ /,$/) break }
		}
		END { print n + 0 }
	' "$1"
}

echo "non-test Go lines (excl. cmd/mmload): $(lines '*.go' ':!*_test.go' ':!cmd/mmload')"
# The simulation harness: the experiments, the chaos scenarios and the
# group builder they share, and mmsim's front end over it.
echo "harness non-test lines (experiments, chaos, mmsim): $(lines 'internal/experiments/*.go' 'internal/chaos/*.go' 'cmd/mmsim/*.go' ':!*_test.go')"
echo "internal/rmcast/rmcast.go lines:      $(wc -l < internal/rmcast/rmcast.go | tr -d ' ')"
echo "wire kinds:                           $(awk '/^\tKindData Kind = iota/ { k = 1 } k && /^\tKind[A-Za-z]+/ { n++ } k && /^\)/ { exit } END { print n }' internal/wire/wire.go)"
# The stack's configs, then the structs nested in or beside them that hold
# more settable values (core's upcalls, overlay formation, membership,
# bulk, clock sync). The total counts every field listed.
total=0
for spec in internal/rmcast/rmcast.go:Config internal/hier/hier.go:Config \
	internal/core/core.go:Config internal/core/core.go:Hooks \
	internal/session/session.go:Config scalamedia.go:Config \
	internal/hier/form.go:FormConfig internal/member/engine.go:Config \
	internal/bulk/bulk.go:Config internal/clocksync/clocksync.go:Config; do
	f=${spec%:*} t=${spec#*:}
	n=$(fields "$f" "$t")
	total=$((total + n))
	printf '%-46s %s\n' "$t fields, $f:" "$n"
done
printf '%-46s %s\n' "settable values (all of the above):" "$total"
echo "test Go lines (excl. cmd/mmload):     $(lines '*_test.go' ':!cmd/mmload')"
