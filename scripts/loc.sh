#!/bin/sh
# loc.sh - non-test Go line counts, the numbers ROADMAP.md and CHANGES.md
# quote. Prints the lines of every .go file that is not a _test.go file
# under cmd/ and internal/ together, under examples/, and the sum of the
# two, then one line per package directory under cmd/, internal/ and
# examples/. Lines are wc -l lines: comments and blank lines count.
#
# Usage: sh scripts/loc.sh   (or make loc)
set -eu
cd "$(dirname "$0")/.."

# lines DIR... prints the non-test Go lines directly or deeply in DIRs.
lines() {
    find "$@" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l
}

core=$(lines cmd internal)
ex=$(lines examples)
printf '%-28s %6d\n' 'cmd/ + internal/' "$core" 'examples/' "$ex" 'total' $((core + ex))
echo
find cmd internal examples -name '*.go' ! -name '*_test.go' -exec dirname {} + | sort -u |
    while IFS= read -r dir; do
        n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
        printf '%-28s %6d\n' "$dir" "$n"
    done
