#!/usr/bin/env bash
# The A/A check: two separately built copies of one source, at absolute
# paths of different length, must agree within the benchmark's own
# bounds. Running one binary twice cannot catch what this catches: cargo
# hashes the checkout path into symbol names, the function order
# changes, and without 64-byte function alignment fletcher32 ran 40.1
# us/op from one path and 44.4 us/op from the other.
#
# usage: benchmark/aa.sh [work-dir]     (default: a fresh mktemp -d)
#
# Copies the working tree (tracked or not, minus build outputs) to
# <work-dir>/a and <work-dir>/a-much-longer-path-than-the-other-copy,
# builds each with the documented command, runs three alternating pairs
# of full untraced passes (seeds 1..3) and judges B against A with
# `compare --aa`: no regressed and no unresolved row, timing rows within
# half their bound, sim_cycles_per_op / virtual_us_per_op identical to
# the digit, allocs_per_op within 0.05 %. Exits non-zero otherwise.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="${1:-$(mktemp -d)}"
case "$work" in
  "$repo"|"$repo"/*) echo "aa.sh: work dir must be outside the repository" >&2; exit 2 ;;
esac
a="$work/a"
b="$work/a-much-longer-path-than-the-other-copy"
seconds="${AA_SECONDS:-10}"

for copy in "$a" "$b"; do
  rm -rf "$copy"
  mkdir -p "$copy"
  tar -C "$repo" --exclude=./.git --exclude=target --exclude=.bench_build \
      --exclude=./benchmark/out -cf - . | tar -C "$copy" -xf -
  (cd "$copy" && CARGO_TARGET_DIR="$copy/.bench_build" cargo build --release --quiet \
      --manifest-path benchmark/Cargo.toml --config benchmark/.cargo/config.toml)
done

run() { # copy seed
  (cd "$1" && CARGO_TARGET_DIR="$1/.bench_build" cargo run --release --quiet \
      --manifest-path benchmark/Cargo.toml --config benchmark/.cargo/config.toml \
      -- run --seed "$2" --seconds "$seconds" >"$1/run-$2.log")
}

for seed in 1 2 3; do
  # Alternate which copy goes first, so drift hits both alike.
  if (( seed % 2 )); then run "$a" "$seed"; run "$b" "$seed"
  else run "$b" "$seed"; run "$a" "$seed"; fi
done

"$a/.bench_build/release/fc-benchmark" compare --aa "$a/benchmark/out" -- "$b/benchmark/out"
