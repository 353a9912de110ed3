#!/usr/bin/env bash
# Single entry point for every project lint — what CI runs and what a
# developer runs before pushing:
#
#   scripts/lint_all.sh [--skip-includes] [--skip-tidy]
#
# Stages (all must pass):
#   1. atypical_lint self-test      the lint's own fixture suite
#   2. check_layering self-test     the layering checker's fixture trees
#   3. atypical_lint               conventions (AL001-AL012, AL016) over
#                                  src/ tests/ bench/ examples/; includes
#                                  AL007 header self-containment unless
#                                  --skip-includes (needs a C++ compiler)
#   4. check_layering              src/ #include graph vs the layer DAG in
#                                  scripts/layering.json (+ ratchet)
#   5. check_effects self-test     the effect checker's fixture trees
#   6. check_effects               AL013-AL015 hot-path effect gates over
#                                  src/ (+ scripts/effects_ratchet.json)
#   7. clang-tidy                  .clang-tidy gate, when clang-tidy is on
#                                  PATH (skipped quietly otherwise unless
#                                  REQUIRE_CLANG_TIDY=1; --skip-tidy)
#
# Exit status: 0 all stages clean, 1 findings, 2 environment error.
set -uo pipefail

cd "$(dirname "$0")/.."

SKIP_INCLUDES=0
SKIP_TIDY=0
for arg in "$@"; do
  case "$arg" in
    --skip-includes) SKIP_INCLUDES=1 ;;
    --skip-tidy) SKIP_TIDY=1 ;;
    *)
      echo "usage: scripts/lint_all.sh [--skip-includes] [--skip-tidy]" >&2
      exit 2
      ;;
  esac
done

FAILED=0
run_stage() {
  local name="$1"
  shift
  echo "==> ${name}"
  if "$@"; then
    echo "    ${name}: ok"
  else
    local status=$?
    if [ "${status}" -ge 2 ]; then
      echo "    ${name}: environment error (exit ${status})" >&2
      exit 2
    fi
    echo "    ${name}: FAILED" >&2
    FAILED=1
  fi
}

run_stage "atypical_lint --self-test" python3 scripts/atypical_lint.py --self-test
run_stage "check_layering --self-test" python3 scripts/check_layering.py --self-test

if [ "${SKIP_INCLUDES}" -eq 0 ]; then
  run_stage "atypical_lint (with AL007 includes)" python3 scripts/atypical_lint.py --with-includes
else
  echo "==> AL007 header self-containment: skipped (--skip-includes)"
  run_stage "atypical_lint" python3 scripts/atypical_lint.py
fi

run_stage "check_layering" python3 scripts/check_layering.py
run_stage "check_effects --self-test" python3 scripts/check_effects.py --self-test
run_stage "check_effects" python3 scripts/check_effects.py

if [ "${SKIP_TIDY}" -eq 0 ]; then
  if command -v clang-tidy >/dev/null 2>&1; then
    run_stage "clang-tidy" scripts/run_clang_tidy.sh
  elif [ "${REQUIRE_CLANG_TIDY:-0}" = "1" ]; then
    echo "error: REQUIRE_CLANG_TIDY=1 but clang-tidy is not installed" >&2
    exit 2
  else
    echo "==> clang-tidy: skipped (not installed; set REQUIRE_CLANG_TIDY=1 to fail)"
  fi
else
  echo "==> clang-tidy: skipped (--skip-tidy)"
fi

if [ "${FAILED}" -ne 0 ]; then
  echo "lint_all: FAILED" >&2
  exit 1
fi
echo "lint_all: all stages clean"
