#!/usr/bin/env bash
# The benchmark's one command: build the standalone crate, then run it.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run; the result object is the last stdout line
#   bash benchmark/run.sh [--seed N] [--seconds S] [--repeat N]          all four workloads, then their traced passes
#   bash benchmark/run.sh compare A.json B.json                           judge B against A by the benchmark's bounds
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Cargo resolves a relative CARGO_TARGET_DIR against its own working
# directory; pin it to where the caller stands.
case "${CARGO_TARGET_DIR:-}" in
  "") export CARGO_TARGET_DIR="$here/target" ;;
  /*) ;;
  *) export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac

# The repo pins its toolchain by channel number; where rustup cannot resolve
# that offline, the installed stable toolchain builds the same code.
if [ -z "${RUSTUP_TOOLCHAIN:-}" ] && ! (cd "$here" && cargo --version >/dev/null 2>&1); then
  export RUSTUP_TOOLCHAIN=stable
fi

cargo build --release --offline --manifest-path "$here/Cargo.toml" 1>&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@" --out "$here/out"
