"""CLI: ``python -m repro.bench [--quick] [--tag TAG] [--out DIR]``.

Runs a bench suite (isolated speedup guards) and writes a schema-validated
``BENCH_<tag>.json`` artifact.  Arm ``REPRO_METRICS=1`` to embed the
hierarchical timer tree in the artifact.  Exit status is 0 on success,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro.bench.runner import format_summary, run_suite, write_artifact
from repro.bench.suite import SUITES


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run a suite of isolated speedup guards and emit a "
                    "BENCH_<tag>.json artifact.")
    parser.add_argument("--suite", choices=sorted(SUITES), default="quick",
                        help="which suite to run (default: quick)")
    parser.add_argument("--quick", action="store_true",
                        help="shorthand for --suite quick")
    parser.add_argument("--tag", default=None,
                        help="artifact tag (default: local-<timestamp>)")
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="directory for BENCH_<tag>.json (default: .)")
    parser.add_argument("--list", action="store_true",
                        help="print the suites and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name, cases in sorted(SUITES.items()):
            print(f"{name}:")
            for case in cases:
                print(f"  {case.name} [{case.kind}] "
                      f"versions={','.join(case.versions)}")
        return 0

    suite = "quick" if args.quick else args.suite
    tag = args.tag or f"local-{time.strftime('%Y%m%d-%H%M%S')}"
    doc = run_suite(suite, tag, progress=lambda msg: print(f"[bench] {msg}",
                                                           file=sys.stderr))
    path = write_artifact(doc, args.out)
    print(format_summary(doc))
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
