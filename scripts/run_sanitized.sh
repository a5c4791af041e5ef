#!/usr/bin/env bash
# Build the whole tree under AddressSanitizer + UndefinedBehaviorSanitizer,
# with libstdc++ assertions bounds-checking every std::vector index, and
# run the full test suite. Any sanitizer report or failed assertion aborts
# the offending test (-fno-sanitize-recover=all), so a green run means the
# suite is clean, not merely quiet.
#
# Usage: scripts/run_sanitized.sh [extra ctest args...]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root/build-sanitize}"

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DBSPMV_SANITIZE=ON
cmake --build "$build_dir" -j "$(nproc)"

# halt_on_error keeps CI logs short; detect_leaks matters for the
# format-conversion paths this repo's fault injection exercises.
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"

ctest --test-dir "$build_dir" --output-on-failure --timeout 300 -j "$(nproc)" "$@"
