#!/bin/sh
# size.sh — the five size figures ROADMAP.md tracks, from the files git
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

# fields <file>: independently settable fields of the file's `type Config
# struct`, counting `A, B T` as two.
fields() {
	awk '
		/^type Config struct \{/ { in_cfg = 1; next }
		in_cfg && /^}/ { in_cfg = 0 }
		in_cfg && /^\t[A-Za-z]/ {
			for (i = 1; i <= NF; i++) { n++; if ($i !~ /,$/) break }
		}
		END { print n + 0 }
	' "$1"
}

echo "non-test Go lines (excl. cmd/mmload): $(lines '*.go' ':!*_test.go' ':!cmd/mmload')"
echo "internal/rmcast/rmcast.go lines:      $(wc -l < internal/rmcast/rmcast.go | tr -d ' ')"
echo "wire kinds:                           $(awk '/^\tKindData Kind = iota/ { k = 1 } k && /^\tKind[A-Za-z]+/ { n++ } k && /^\)/ { exit } END { print n }' internal/wire/wire.go)"
for f in internal/rmcast/rmcast.go internal/hier/hier.go internal/core/core.go internal/session/session.go scalamedia.go; do
	printf 'Config fields, %-29s %s\n' "$f:" "$(fields "$f")"
done
echo "test Go lines (excl. cmd/mmload):     $(lines '*_test.go' ':!cmd/mmload')"
