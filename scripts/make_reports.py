#!/usr/bin/env python3
"""Regenerate the checked-in comparison reports.

Usage::

    python scripts/make_reports.py [OUTDIR]

Writes every report of ``repro.runner.REPORTS`` — the chaos resilience
comparison, the kernel-pack degradation ladder and the scale-to-zero
frontier — into ``benchmarks/`` (or OUTDIR) under its checked-in file
name, with the volatile ``run`` section pinned (``created_unix=0``) so
each file is byte-stable, and prints one verdict line per report.  The
files are serialized exactly as ``repro chaos``/``repro fleet
--output`` write them.  Rerun this script whenever a deliberate change
to the simulator shifts a report's numbers, and commit the diff
alongside the change.  Exits 1 if any report's verdict fails.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.runner import REPORTS, comparison_report, report_json  # noqa: E402

DEFAULT_OUTDIR = os.path.join(os.path.dirname(__file__), "..", "benchmarks")


def main(argv):
    outdir = argv[0] if argv else DEFAULT_OUTDIR
    os.makedirs(outdir, exist_ok=True)
    failed = 0
    for entry in REPORTS:
        report, passed = comparison_report(entry.name, created_unix=0.0)
        path = os.path.join(outdir, entry.filename)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(report_json(report))
        print(f"wrote {os.path.relpath(path)}: {entry.name} "
              f"{'PASS' if passed else 'FAIL'}")
        failed += not passed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
