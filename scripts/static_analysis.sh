#!/usr/bin/env bash
# Static-analysis driver: clang-tidy (when installed), repo-invariant lint
# with fixture self-test, and the binary-level hot-path audit.
#
# Usage: scripts/static_analysis.sh [--strict] [build-dir]
#   --strict   tool-missing stages FAIL instead of SKIP. CI uses this on
#              runners that are supposed to have the full toolchain, so a
#              silently absent clang-tidy cannot masquerade as a pass.
#   build-dir  CMake build tree providing compile_commands.json and the
#              compiled objects for the audit
#              (default: build; configured automatically if missing).
#
# Exit status is non-zero iff any stage FAILs. Without --strict a missing
# tool is reported as SKIP, not failure, so the lint still gates
# environments without the LLVM toolchain.
set -uo pipefail

cd "$(dirname "$0")/.."

STRICT=0
BUILD_DIR=build
for arg in "$@"; do
  case "$arg" in
    --strict) STRICT=1 ;;
    -h|--help) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

declare -a STAGE_NAMES STAGE_RESULTS
record() { STAGE_NAMES+=("$1"); STAGE_RESULTS+=("$2"); }
# SKIP becomes FAIL under --strict.
skip() { record "$1" "$([[ $STRICT == 1 ]] && echo FAIL || echo SKIP)"; }

# --- Stage 1: clang-tidy over src/ ----------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  # Reconfigure when compile_commands.json is missing or stale: an edited
  # CMakeLists.txt can add flags/definitions clang-tidy must see, and an
  # outdated database silently analyses the wrong build.
  if [[ ! -f "$BUILD_DIR/compile_commands.json" ]] ||
     [[ CMakeLists.txt -nt "$BUILD_DIR/compile_commands.json" ]] ||
     [[ src/CMakeLists.txt -nt "$BUILD_DIR/compile_commands.json" ]]; then
    echo "== compile_commands.json missing or stale; reconfiguring =="
    cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  fi
  mapfile -t SOURCES < <(find src -name '*.cpp' | sort)
  echo "== clang-tidy (${#SOURCES[@]} files, config .clang-tidy) =="
  if clang-tidy -p "$BUILD_DIR" --quiet "${SOURCES[@]}"; then
    record clang-tidy PASS
  else
    record clang-tidy FAIL
  fi
else
  echo "== clang-tidy: not installed, skipping =="
  skip clang-tidy
fi

# --- Stage 2: invariant-linter self-test ----------------------------------
# The linter proves it still detects every rule's seeded bug before its
# verdict on the real tree is trusted.
echo "== invariant lint self-test (tests/lint fixtures) =="
if python3 scripts/check_invariants.py --self-test; then
  record lint-selftest PASS
else
  record lint-selftest FAIL
fi

# --- Stage 3: repo-invariant lint -----------------------------------------
echo "== invariant lint (scripts/check_invariants.py, rules R1-R11) =="
if python3 scripts/check_invariants.py; then
  record invariant-lint PASS
else
  record invariant-lint FAIL
fi

# --- Stage 4: binary-level hot-path audit ---------------------------------
# Requires compiled objects; exit 77 means tools/objects unavailable.
echo "== hot-path audit (scripts/audit_hot_path.py, nm/objdump) =="
python3 scripts/audit_hot_path.py --self-test
selftest_rc=$?
if [[ $selftest_rc == 77 ]]; then
  skip audit-selftest
elif [[ $selftest_rc == 0 ]]; then
  record audit-selftest PASS
else
  record audit-selftest FAIL
fi
if [[ $STRICT == 1 ]]; then
  python3 scripts/audit_hot_path.py --build "$BUILD_DIR" --strict
  audit_rc=$?
else
  python3 scripts/audit_hot_path.py --build "$BUILD_DIR"
  audit_rc=$?
fi
if [[ $audit_rc == 77 ]]; then
  skip hot-path-audit
elif [[ $audit_rc == 0 ]]; then
  record hot-path-audit PASS
else
  record hot-path-audit FAIL
fi

# --- Summary ---------------------------------------------------------------
echo
echo "static_analysis summary$([[ $STRICT == 1 ]] && echo ' (--strict)'):"
status=0
for i in "${!STAGE_NAMES[@]}"; do
  printf '  %-16s %s\n' "${STAGE_NAMES[$i]}" "${STAGE_RESULTS[$i]}"
  [[ "${STAGE_RESULTS[$i]}" == FAIL ]] && status=1
done
exit $status
