#!/usr/bin/env bash
# Smoke gate for the benchmark: its unit tests, BENCHMARK.json against
# the catalogue, and every workload once on the small corpus, untraced
# and traced, with every output check on. No numbers come out of this;
# the measured run is `benchmark all`. Run from the repository root:
#
#   bash benchmark/ci.sh
#
# Not wired into .github/workflows/ci.yml by the change that added it
# (that change may touch nothing outside this directory); a later one
# can add a job that runs this line.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo test --release --offline --quiet --manifest-path "$manifest"
cargo run --release --offline --quiet --manifest-path "$manifest" -- check
cargo run --release --offline --quiet --manifest-path "$manifest" -- all --smoke
