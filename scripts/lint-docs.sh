#!/bin/sh
# lint-docs: fail when any package in the module lacks a package doc
# comment, or when a Go comment names a Markdown file that is not in the
# repository. Run by `make lint-docs` and the CI docs job.
#
# The documentation surface is tested like code here (see the docs CI
# job), so an undocumented package is a lint error, not a style nit: every
# package must have at least one non-test .go file whose package clause is
# immediately preceded by a doc comment (a `// Package ...` comment for
# libraries, a `// Command ...`-style comment for main packages, or a
# dedicated doc.go). Build-constraint and directive lines (`//go:...`) do
# not count as documentation.
set -eu

cd "$(dirname "$0")/.."

fail=0
for dir in $(go list -f '{{.Dir}}' ./...); do
	documented=0
	for f in "$dir"/*.go; do
		[ -e "$f" ] || continue
		case "$f" in
		*_test.go) continue ;;
		esac
		if awk '
			/^package / { exit found ? 0 : 1 }
			/^\/\/go:/ { next }
			/^\/\// || /\*\// { found = 1; next }
			/^$/ { found = 0; next }
			{ found = 0 }
		' "$f"; then
			documented=1
			break
		fi
	done
	if [ "$documented" -eq 0 ]; then
		echo "lint-docs: package $dir has no package doc comment" >&2
		fail=1
	fi
done

# A comment that cites a document sends its reader there, so every
# Markdown file a Go comment names (a //-comment word ending in .md) must
# exist, beside the Go file or at the repository root.
missing=$(find . \( -name '.*' -a ! -name . \) -prune -o -name '*.go' -print | sort |
	xargs awk '
		{
			i = index($0, "//")
			if (i == 0) next
			s = substr($0, i + 2)
			while (match(s, "[A-Za-z0-9_./-]*[A-Za-z0-9_-][.]md([^A-Za-z0-9_]|$)")) {
				name = substr(s, RSTART, RLENGTH)
				sub("[^A-Za-z0-9_]$", "", name)
				print FILENAME ":" FNR ": " name
				s = substr(s, RSTART + RLENGTH)
			}
		}' |
	while IFS= read -r hit; do
		f=${hit%%:*}
		name=${hit##* }
		[ -e "$(dirname "$f")/$name" ] || [ -e "$name" ] || echo "$hit"
	done)
if [ -n "$missing" ]; then
	echo "lint-docs: Go comments name Markdown files that are not in the repository:" >&2
	echo "$missing" >&2
	fail=1
fi

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "lint-docs: every package is documented, and every Markdown file a Go comment names exists"
