#!/bin/sh
# Non-test Go lines per package directory and in total, with and without
# bench/ — the figure ROADMAP items and simplicity issues quote. Plain
# `wc -l` lines (comments and blanks count), *_test.go excluded. Given a
# ceiling as $1 (`make loc-check`), exits 1 when the total without bench/
# exceeds it.
cd "$(dirname "$0")/.." || exit 1
find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' -exec wc -l {} + |
awk -v ceiling="${1:-0}" '$2 != "total" {
	dir = $2; sub(/^\.\//, "", dir); sub(/\/?[^\/]*$/, "", dir); if (dir == "") dir = "."
	n[dir] += $1; all += $1; if (dir != "bench") nobench += $1
}
END {
	for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"
	close("sort -k2")
	printf "%7d  total\n%7d  total without bench/\n", all, nobench
	if (ceiling > 0 && nobench > ceiling) {
		printf "total without bench/ is %d, over the ceiling of %d: shrink the tree, or raise LOC_CEILING in the Makefile and say why\n", nobench, ceiling > "/dev/stderr"
		exit 1
	}
}'
