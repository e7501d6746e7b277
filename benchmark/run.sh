#!/usr/bin/env bash
# Builds the `bqsim` binary and the benchmark harness (offline, release,
# one shared target directory), then runs the harness. See README.md.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
cd "$root"

target=${CARGO_TARGET_DIR:-target}
case $target in
    /*) ;;
    *) target=$root/$target ;;
esac
export CARGO_TARGET_DIR=$target

# Build output goes to stderr: stdout carries only the report.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p bqsim-serve --bin bqsim >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/bqsim-benchmark" \
    --bqsim "$target/release/bqsim" --tmp-root "$target/bqsim-benchmark-tmp" "$@"
