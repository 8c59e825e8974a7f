#!/usr/bin/env bash
# Code lines per package, the ROADMAP's tracked number: lines of .go files
# that are neither blank nor //-only (so deleting comments moves nothing),
# split into non-test and _test.go. Prints the table for every package, then
# fails if a package listed in bench/loc.ceiling has grown more than 2 % past
# its recorded non-test count. After a PR that shrinks a package on purpose,
# lower its ceiling to the new count.
set -uo pipefail
cd "$(dirname "$0")/.."

count() {
	[ "$#" -eq 0 ] && { echo 0; return; }
	cat "$@" | grep -v '^[[:space:]]*$' | grep -v '^[[:space:]]*//' | wc -l
}

printf '%-28s %9s %9s\n' package non-test test
status=0
for dir in $(find . -name '*.go' -not -path '*/testdata/*' -not -path './.bench_build/*' -printf '%h\n' | sort -u); do
	pkg=${dir#./}
	nontest=$(count $(ls "$dir"/*.go | grep -v '_test\.go$'))
	test=$(count $(ls "$dir"/*.go | grep '_test\.go$'))
	printf '%-28s %9d %9d\n' "$pkg" "$nontest" "$test"
	ceiling=$(awk -v p="$pkg" '$1 == p { print $2 }' bench/loc.ceiling)
	if [ -n "$ceiling" ] && [ $((nontest * 100)) -gt $((ceiling * 102)) ]; then
		echo "FAIL: $pkg has $nontest non-test code lines, more than 2% over its ceiling of $ceiling (bench/loc.ceiling)" >&2
		status=1
	fi
done
exit $status
