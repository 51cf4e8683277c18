"""Regression tests for ``scripts/check_perf_budget.py``.

The script dispatches each budget entry on its ``kind``; a typo used to
fall back silently to the cluster profile, timing the wrong thing while
still printing ``ok``.  These tests pin the loud-failure contract: an
unrecognized kind exits 2 before anything is measured, and the per-kind
wall-clock extraction reads the field the budget actually gates.
"""

import importlib.util
import json
import os
from types import SimpleNamespace

import pytest

_SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir,
                       "scripts", "check_perf_budget.py")


@pytest.fixture(scope="module")
def budget_script():
    spec = importlib.util.spec_from_file_location("check_perf_budget",
                                                  _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checked_in_entry(name):
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "benchmarks", "trace_scaling_budget.json")
    with open(path, encoding="utf-8") as handle:
        entries = json.load(handle)["entries"]
    return next(entry for entry in entries if entry["name"] == name)


def _write_budget(tmp_path, entries, **top):
    payload = {"entries": entries, **top}
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestKindDispatch:
    def test_known_kinds_cover_every_profile(self, budget_script):
        assert budget_script.KNOWN_KINDS == ("cluster", "fleet", "packs",
                                             "cold-serve")

    def test_unknown_kind_exits_2_without_measuring(self, budget_script,
                                                    tmp_path, capsys,
                                                    monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("measured an entry with a bad kind")
        monkeypatch.setattr(budget_script, "_measure", boom)
        path = _write_budget(tmp_path, [
            {"name": "typo", "kind": "flet", "requests": 10,
             "budget_s": 1.0}])
        assert budget_script.main([path]) == 2
        err = capsys.readouterr().err
        assert "flet" in err and "cluster" in err

    def test_missing_kind_defaults_to_cluster(self, budget_script):
        entry = {"name": "x", "requests": 10, "budget_s": 1.0}

        class Profile:
            wall_s = 0.5
            wall_pack_s = 99.0
        assert budget_script._wall(entry, Profile()) == 0.5

    def test_packs_kind_gates_the_pack_leg(self, budget_script):
        entry = {"name": "x", "kind": "packs", "requests": 10,
                 "budget_s": 1.0}

        class Profile:
            wall_s = 99.0
            wall_pack_s = 0.25
        assert budget_script._wall(entry, Profile()) == 0.25

    def test_usage_error_exits_2(self, budget_script):
        assert budget_script.main([]) == 2
        assert budget_script.main(["a", "b"]) == 2


class TestEndToEnd:
    def test_tiny_cluster_budget_passes(self, budget_script, tmp_path,
                                        capsys):
        path = _write_budget(
            tmp_path,
            [{"name": "tiny", "requests": 50, "trace_retention": None,
              "fast_forward": True, "budget_s": 30.0}],
            repeats=1, rate_hz=50.0)
        assert budget_script.main([path]) == 0
        assert "all measurements within budget" in capsys.readouterr().out

    def test_tiny_packs_budget_passes(self, budget_script, tmp_path,
                                      capsys):
        path = _write_budget(
            tmp_path,
            [{"name": "tiny-packs", "kind": "packs", "requests": 50,
              "budget_s": 30.0}],
            repeats=1, rate_hz=50.0)
        assert budget_script.main([path]) == 0
        out = capsys.readouterr().out
        assert "restores=" in out

    def test_cold_serve_budget_passes(self, budget_script, tmp_path,
                                      capsys):
        events = _checked_in_entry("cold-serve-grid-breakdown")["events"]
        path = _write_budget(
            tmp_path,
            [{"name": "grid", "kind": "cold-serve", "events": events,
              "budget_s": 60.0}],
            repeats=1)
        assert budget_script.main([path]) == 0
        out = capsys.readouterr().out
        assert "requests=72" in out and "records=" in out
        assert f"events={events}" in out

    def test_cold_serve_event_count_is_exact(self, budget_script, tmp_path,
                                             capsys, monkeypatch):
        """A count off by one fails the entry even well within its
        wall-clock budget; fewer events than pinned fail too."""
        def measure(entry, rate_hz):
            return SimpleNamespace(wall_s=0.001, requests=72, records=1,
                                   events=100)
        monkeypatch.setattr(budget_script, "_measure", measure)
        for pinned, code in ((100, 0), (101, 1), (99, 1)):
            path = _write_budget(
                tmp_path,
                [{"name": "grid", "kind": "cold-serve", "events": pinned,
                  "budget_s": 60.0}],
                repeats=1)
            assert budget_script.main([path]) == code
            out = capsys.readouterr().out
            assert ("ok" if code == 0 else f"EVENTS!={pinned}") in out

    def test_regression_exits_1(self, budget_script, tmp_path, capsys):
        path = _write_budget(
            tmp_path,
            [{"name": "impossible", "requests": 50,
              "trace_retention": None, "fast_forward": True,
              "budget_s": 0.0}],
            repeats=1, rate_hz=50.0)
        assert budget_script.main([path]) == 1
        assert "REGRESSION" in capsys.readouterr().out


class TestEntryKeys:
    """Every entry's keys are checked against its kind before anything
    is measured; a typo or an omission exits 2, never 1 or ``ok``."""

    @pytest.fixture
    def no_measuring(self, budget_script, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("measured an entry with bad keys")
        monkeypatch.setattr(budget_script, "_measure", boom)

    def test_unknown_key_exits_2(self, budget_script, tmp_path, capsys,
                                 no_measuring):
        path = _write_budget(tmp_path, [
            {"name": "typo", "kind": "fleet", "requests": 10,
             "regoins": 2, "budget_s": 1.0}])
        assert budget_script.main([path]) == 2
        err = capsys.readouterr().err
        assert err == "entry 'typo': unknown key 'regoins'\n"

    def test_missing_key_exits_2(self, budget_script, tmp_path, capsys,
                                 no_measuring):
        path = _write_budget(tmp_path, [
            {"name": "no-ff", "requests": 10, "trace_retention": None,
             "budget_s": 1.0}])
        assert budget_script.main([path]) == 2
        err = capsys.readouterr().err
        assert err == "entry 'no-ff': missing key 'fast_forward'\n"

    def test_unnamed_entry_is_named_by_index(self, budget_script, tmp_path,
                                             capsys, no_measuring):
        path = _write_budget(tmp_path, [
            {"name": "ok", "kind": "cold-serve", "events": 1,
             "budget_s": 1.0},
            {"kind": "cold-serve", "events": 1, "budget_s": 1.0}])
        assert budget_script.main([path]) == 2
        assert capsys.readouterr().err == "entry '#1': missing key 'name'\n"

    def test_cold_serve_needs_an_event_count(self, budget_script, tmp_path,
                                             capsys, no_measuring):
        path = _write_budget(tmp_path, [
            {"name": "grid", "kind": "cold-serve", "budget_s": 1.0}])
        assert budget_script.main([path]) == 2
        assert capsys.readouterr().err == \
            "entry 'grid': missing key 'events'\n"

    @pytest.mark.parametrize("kind", ["cluster", "fleet", "packs"])
    def test_entry_rate_overrides_file_rate(self, budget_script,
                                            monkeypatch, kind):
        seen = {}

        def profile(**kwargs):
            seen.update(kwargs)
        for name in ("profile_cluster", "profile_fleet", "profile_packs"):
            monkeypatch.setattr(budget_script, name, profile)
        entry = {"name": "x", "kind": kind, "requests": 10,
                 "trace_retention": None, "fast_forward": True,
                 "rate_hz": 7.0, "budget_s": 1.0}
        budget_script._measure(entry, 200.0)
        assert seen["rate_hz"] == 7.0

    @pytest.mark.parametrize("name", ["trace_scaling_budget.json",
                                      "replay_scaling_budget.json",
                                      "pack_transfer_budget.json"])
    def test_checked_in_budgets_have_valid_keys(self, budget_script, name):
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "benchmarks", name)
        with open(path, encoding="utf-8") as handle:
            entries = json.load(handle)["entries"]
        assert budget_script._key_problems(entries) == []
