#!/usr/bin/env bash
# Fails when one test binary lists the same test name twice: a test
# registered twice runs twice, and prints its failure twice. (A
# `proptest!` case that also carries `#[test]` does this, because the
# vendored macro adds `#[test]` itself.) Extra arguments go to cargo.
#
#   bash scripts/unique_tests.sh [--release]
set -euo pipefail
cd "$(dirname "$0")/.."

# cargo names each binary on stderr just before that binary prints its
# list on stdout, so one stream holds both in order.
cargo test --workspace "$@" -- --list 2>&1 | awk '
    /^ *(Running|Doc-tests) / { binary = $0; sub(/^ +/, "", binary); split("", seen); next }
    / (test|benchmark)$/ {
        if (seen[$0]++ == 1) { print $0 " listed twice by " binary; twice++ }
    }
    END {
        if (twice) { print twice " test name(s) listed twice"; exit 1 }
        print "every test binary lists each test once"
    }'
