#!/bin/sh
# doclint.sh - documentation consistency checks, run as part of
# scripts/verify.sh. Pure POSIX sh + grep/sed/find; no dependencies.
#
# Checks:
#   1. Every intra-repo markdown link (relative [text](path) target in
#      any *.md file) resolves to an existing file or directory.
#      External links (http/https/mailto) and pure #anchors are skipped;
#      a path#anchor link is checked for the path part only.
#   2. Every CLI flag documented in README.md or docs/*.md as a
#      backtick-quoted `-flag` token exists as a flag definition in some
#      cmd/*/main.go, so the docs cannot drift ahead of (or behind) the
#      binaries. Go toolchain flags (-tags, -bench, -race, ...) are
#      allowlisted.
#   3. Every BENCH_*.json named in the documents that describe the
#      tree (README.md, DESIGN.md, EXPERIMENTS.md, docs/*.md,
#      bench/README.md), the Makefile or a script exists in the tree, so
#      none points at a benchmark record that was never committed.
set -eu
cd "$(dirname "$0")/.."

fail=$(mktemp)
trap 'rm -f "$fail"' EXIT INT TERM

echo "--- markdown links"
for f in $(find . -name '*.md' -not -path './.git/*'); do
    dir=$(dirname "$f")
    # Inline links: capture the (target) of every [text](target).
    grep -o '\[[^][]*\]([^()]*)' "$f" 2>/dev/null |
        sed 's/^.*(\([^()]*\))$/\1/' |
        while IFS= read -r target; do
            case "$target" in
            http://* | https://* | mailto:* | '#'*) continue ;;
            esac
            path=${target%%#*}
            [ -z "$path" ] && continue
            if [ ! -e "$dir/$path" ]; then
                echo "doclint: $f: broken link -> $target" >&2
                echo x >>"$fail"
            fi
        done
done

echo "--- documented flags"
# Flags the binaries actually define (flag.X("name", ...) in any
# cmd/*/main.go, including FlagSet receivers like fs.Int).
defined=$(grep -rhoE '\b[A-Za-z_]+\.(String|Bool|Int|Int64|Uint|Uint64|Float64|Duration)\("[a-z][a-z0-9-]*"' cmd/*/main.go |
    sed 's/.*("\([^"]*\)".*/\1/' | sort -u)
# Go toolchain / standard tool flags that docs legitimately mention but
# no binary defines.
allow="bench benchmem benchtime count cover coverprofile cpuprofile l
memprofile race run short tags timeout v x"
for df in $(grep -rhoE '`-[a-z][a-z0-9-]*' README.md docs/*.md 2>/dev/null |
    sed 's/^`-//' | sort -u); do
    ok=0
    for a in $allow; do
        [ "$df" = "$a" ] && ok=1 && break
    done
    [ $ok = 1 ] && continue
    if ! printf '%s\n' "$defined" | grep -qx "$df"; then
        echo "doclint: documented flag -$df not defined in any cmd/*/main.go" >&2
        echo x >>"$fail"
    fi
done

echo "--- BENCH_*.json references"
for f in README.md DESIGN.md EXPERIMENTS.md docs/*.md bench/README.md Makefile scripts/*.sh; do
    for name in $(grep -oE 'BENCH_[A-Za-z0-9_]+\.json' "$f" | sort -u); do
        if [ -z "$(find . -name "$name" -not -path './.git/*' -not -path './.bench_build/*' -print -quit)" ]; then
            echo "doclint: $f: names $name, which is not in the tree" >&2
            echo x >>"$fail"
        fi
    done
done

if [ -s "$fail" ]; then
    echo "doclint: FAILED" >&2
    exit 1
fi
echo "doclint: OK"
