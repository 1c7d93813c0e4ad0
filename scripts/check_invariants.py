#!/usr/bin/env python3
"""Repo-invariant lint: structural rules clang-tidy cannot express.

Thin CLI over scripts/invariants/ (rules-as-data; see that package and
docs/static-analysis.md for the full rule prose). The rules:

  R1  raw `data_[...]` index arithmetic confined to src/tensor/
  R2  std::thread / <thread> confined to src/parallel/
  R3  non-deterministic RNGs confined to src/util/rng
  R4  every src/<module>/<name>.cpp's header referenced from tests/
  R5  condition_variable/future/promise confined to src/parallel/ + src/serve/
  R6  the plan interpreter (src/xnor/exec.cpp) is an allocation-free zone
  R7  obs primitives defined only in src/obs/; src/obs/metrics.hpp stays
      lock-free and allocation-free
  R8  every mutex is an annotated util::Mutex and guards at least one
      BCOP_GUARDED_BY member (waivable per-line with a documented reason:
      `// bcop-lint: allow(R8): <why>`)
  R9  hot-TU include hygiene: src/xnor/exec.cpp and src/obs/metrics.hpp
      may not directly include <mutex>, <iostream> or <functional>
  R10 raw sockets and readiness syscalls confined to src/net/
  R11 tests name temp files only through testhelpers::unique_temp_path
      (no literal /tmp/ paths, no temp_directory_path() joins)

Every rule self-tests against pass/fail fixture trees in tests/lint/
(`--self-test`, also wired into ctest as `lint_selftest`).

Exit status: 0 when clean, 1 with a per-violation report otherwise.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from invariants import RULES, SourceTree, run_rules  # noqa: E402
from invariants.selftest import run_self_test  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(
        description="structural invariant lint (rules R1..R11)")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="tree to lint (default: the repo)")
    parser.add_argument("--rule", metavar="ID",
                        help="run a single rule (e.g. R8)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="run every rule against its tests/lint/ "
                             "fixture pair")
    args = parser.parse_args()

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.id}  {rule.title}")
            print(f"    {rule.rationale}")
        return 0

    if args.self_test:
        return run_self_test(ROOT / "tests" / "lint")

    if args.rule and args.rule not in {r.id for r in RULES}:
        print(f"check_invariants: unknown rule '{args.rule}' "
              f"(known: {', '.join(r.id for r in RULES)})")
        return 2

    tree = SourceTree(args.root)
    violations, waived = run_rules(tree, RULES, only=args.rule)
    if violations:
        print(f"check_invariants: {len(violations)} violation(s)")
        for v in violations:
            print("  " + str(v))
        return 1
    ran = 1 if args.rule else len(RULES)
    waived_note = f", {waived} waived" if waived else ""
    print(f"check_invariants: OK "
          f"({len(tree.src_files())} files, {ran} rules{waived_note})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
