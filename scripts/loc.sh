#!/usr/bin/env bash
# Prints, per crate, the non-test lines of crates/*/src and the non-test
# `pub fn`s in them. A line is non-test when it comes before the first
# `#[cfg(test)]` of its file; a `pub fn` is a non-test line that starts
# (after indentation) with `pub fn`. Informational: it gates nothing.
#
#   bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

printf '%-20s %7s %7s\n' crate lines 'pub fn'
total_lines=0
total_fns=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    read -r lines fns < <(
        find "$dir/src" -name '*.rs' -print0 | sort -z |
            xargs -0 awk '
                FNR == 1 { in_test = 0 }
                /#\[cfg\(test\)\]/ { in_test = 1 }
                !in_test { lines++; if ($0 ~ /^[ \t]*pub fn /) fns++ }
                END { print lines + 0, fns + 0 }'
    )
    printf '%-20s %7d %7d\n' "$crate" "$lines" "$fns"
    total_lines=$((total_lines + lines))
    total_fns=$((total_fns + fns))
done
printf '%-20s %7d %7d\n' total "$total_lines" "$total_fns"
