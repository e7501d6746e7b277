#!/usr/bin/env bash
# spMM kernel microbenches: the shape-specialised fast paths against the
# generic loop (criterion). End-to-end and per-layer numbers come from the
# repository benchmark instead: `bash benchmark/run.sh` (BENCHMARK.json).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> criterion: spMM fast paths vs generic loop"
cargo bench -p bqsim-bench --bench bench_pr3_spmm
