"""The checked-in comparison reports regenerate byte-for-byte.

Every entry of :data:`repro.runner.REPORTS` has a checked-in
``benchmarks/*.json`` file.  The simulator is deterministic, so a fresh
``comparison_report(name, created_unix=0.0)`` serialized the way
``scripts/make_reports.py`` and the CLI ``--output`` write it must equal
that file exactly — comparing text, not parsed dicts, also catches an
int that became a float.  Any drift is a real behavior change: review
it and re-commit via ``scripts/make_reports.py``.  The claims each
report tests are asserted in ``test_chaos_report.py``,
``test_packs_report.py`` and ``test_fleet_golden.py``.
"""

import os

import pytest

from repro.runner import REPORTS, comparison_report, report_json

_BENCHMARKS = os.path.join(os.path.dirname(__file__), "..", "benchmarks")


@pytest.mark.parametrize("entry", REPORTS, ids=lambda entry: entry.name)
def test_checked_in_report_regenerates_byte_identically(entry):
    with open(os.path.join(_BENCHMARKS, entry.filename),
              encoding="utf-8") as handle:
        checked_in = handle.read()
    report, passed = comparison_report(entry.name, created_unix=0.0)
    assert report_json(report) == checked_in, (
        f"{entry.filename} drifted from a fresh regeneration; if the "
        f"change is deliberate, rerun scripts/make_reports.py and commit "
        f"the diff")
    assert passed
    assert report["meta"]["grid"] == entry.name
    assert entry.section in report


def test_unknown_report_rejected():
    with pytest.raises(ValueError, match="fleet-frontier"):
        comparison_report("frontier")
