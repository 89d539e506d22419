#!/usr/bin/env bash
# Asserts that the tiled SoA mover's hot loop (move_tile) actually
# vectorizes: compiles tools/vec_probe.cpp (which instantiates the two
# move_all_tiled specialisations exactly as the drivers do) with the
# production optimization flags and the compiler's vectorization report
# turned on, then greps the report for src/pic/mover.hpp. If the
# compiler stops reporting the loop as
# vectorized — a regression someone could introduce with one innocent
# branch or aliasing pointer — this exits non-zero and CI fails.
#
#   tools/check_vectorization.sh [compiler ...]
#
# Default: g++ always, plus clang++ when it is on PATH (the dev
# container bakes in gcc only; CI images with clang get both legs).
# The missed-report (-fopt-info-vec-missed / -Rpass-missed) is printed
# for the mover so the failure message says WHY the loop was left
# scalar, not just that it was.
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
probe="${repo_root}/tools/vec_probe.cpp"
# Keep in lockstep with the CMakeLists optimization block: RelWithDebInfo
# is -O2, and the project adds -ftree-vectorize -fno-math-errno globally.
common_flags=(-std=c++20 -O2 -ftree-vectorize -fno-math-errno
              -I "${repo_root}/src" -c -o /dev/null "${probe}")

if [ "$#" -gt 0 ]; then
  compilers=( "$@" )
else
  compilers=( g++ )
  if command -v clang++ >/dev/null 2>&1; then
    compilers+=( clang++ )
  else
    echo "check_vectorization.sh: clang++ not on PATH; running the gcc leg only"
  fi
fi

status=0
for cxx in "${compilers[@]}"; do
  if ! command -v "${cxx}" >/dev/null 2>&1; then
    echo "check_vectorization.sh: ${cxx} not found; skipping" >&2
    continue
  fi
  case "$("${cxx}" --version 2>/dev/null | head -n1)" in
    *clang*) report_flags=(-Rpass=loop-vectorize -Rpass-missed=loop-vectorize)
             vectorized_re='mover\.hpp.*vectorized' ;;
    *)       report_flags=(-fopt-info-vec-optimized -fopt-info-vec-missed)
             vectorized_re='mover\.hpp.*optimized: loop vectorized' ;;
  esac

  echo "=== ${cxx}: ${report_flags[*]} over tools/vec_probe.cpp ==="
  if ! report="$("${cxx}" "${report_flags[@]}" "${common_flags[@]}" 2>&1)"; then
    echo "${report}"
    echo "check_vectorization.sh: ${cxx} failed to compile the probe" >&2
    status=1
    continue
  fi

  mover_report="$(grep 'mover\.hpp' <<<"${report}" || true)"
  if grep -qE "${vectorized_re}" <<<"${mover_report}"; then
    echo "${cxx}: mover loops vectorized:"
    grep -E "${vectorized_re}" <<<"${mover_report}"
  else
    echo "${cxx}: NO vectorized loop reported for src/pic/mover.hpp." >&2
    echo "Missed-vectorization report for the mover:" >&2
    if [ -n "${mover_report}" ]; then
      echo "${mover_report}" >&2
    else
      echo "(compiler emitted no report lines for mover.hpp at all)" >&2
    fi
    status=1
  fi
done

exit "${status}"
