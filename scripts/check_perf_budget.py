#!/usr/bin/env python3
"""Perf smoke: replay wall-clock versus a checked-in budget file.

Usage::

    python scripts/check_perf_budget.py benchmarks/trace_scaling_budget.json
    python scripts/check_perf_budget.py benchmarks/replay_scaling_budget.json
    python scripts/check_perf_budget.py benchmarks/pack_transfer_budget.json

Runs the replay profile for every entry in the budget file, taking the
best of ``repeats`` runs, and fails if any measurement exceeds
``regression_factor`` times its ``budget_s``.  An entry's ``kind``
picks what is measured; every entry needs ``name`` and ``budget_s``,
and the other keys each kind takes are (required / optional):

- ``cluster`` (the default) — a cluster replay
  (``repro.runner.profile_cluster``): ``requests``, ``trace_retention``,
  ``fast_forward`` / ``rate_hz``.
- ``fleet`` — a sharded fleet replay (``repro.runner.profile_fleet``):
  ``requests`` / ``rate_hz``, ``regions``, ``jobs``, ``routing``.
- ``packs`` — the kernel-pack spin-up comparison
  (``repro.runner.profile_packs``, gated on its pack-restore leg):
  ``requests`` / ``rate_hz``, ``instances``, ``idle_timeout_s``.
- ``cold-serve`` — the 12-model x 6-scheme MI100 cold-serve grid with
  one ``breakdown()`` per serve, so the trace fold is gated too:
  ``events``, the exact total of ``Environment.events_scheduled`` over
  the timed pass.  The simulation is deterministic, so any other count
  fails the entry whatever its wall-clock: an event-kernel change that
  adds or saves work has to re-pin the count.

An entry's ``rate_hz`` overrides the file-level ``rate_hz``.  An
unrecognized ``kind``, an unknown key or a missing required key is a
hard error (exit 2) before anything is measured, so a typo can't
silently time the wrong thing.  Budgets are deliberately loose (~4x a
warm local run), so the gate only trips on a genuine hot-path
regression — not on a noisy shared runner.  Used by the CI perf-smoke
job; run it locally after touching ``repro/sim/trace.py``,
``repro/serving/pool.py``, ``repro/serving/cluster.py``,
``repro/fleet/parallel.py``, ``repro/packs/store.py`` or the
cold-serve path.
"""

import json
import os
import sys
from time import perf_counter
from types import SimpleNamespace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.runner import (profile_cluster, profile_fleet,  # noqa: E402
                          profile_packs)

# kind -> (required keys, optional keys), beyond the ``name``,
# ``budget_s`` and ``kind`` every entry takes.
KIND_KEYS = {
    "cluster": ({"requests", "trace_retention", "fast_forward"},
                {"rate_hz"}),
    "fleet": ({"requests"}, {"rate_hz", "regions", "jobs", "routing"}),
    "packs": ({"requests"}, {"rate_hz", "instances", "idle_timeout_s"}),
    "cold-serve": ({"events"}, set()),
}
KNOWN_KINDS = tuple(KIND_KEYS)


def _cold_serve_grid():
    """Cold-serve every model under every scheme (MI100, batch 1),
    querying the phase breakdown of each trace; graphs and programs are
    built by an untimed first pass.  Every serve's ``Environment`` is
    kept, to total the events the timed pass scheduled."""
    from repro.core.schemes import Scheme
    from repro.models import list_models
    from repro.serving import server as server_module
    from repro.sim.trace import Phase

    environments = []
    plain = server_module.Environment

    class CountedEnvironment(plain):
        def __init__(self):
            super().__init__()
            environments.append(self)

    server = server_module.InferenceServer("MI100")
    cells = [(model, scheme) for model in list_models() for scheme in Scheme]
    for model, scheme in cells:
        server.serve_cold(model, scheme)
    records = 0
    server_module.Environment = CountedEnvironment
    try:
        start = perf_counter()
        for model, scheme in cells:
            trace = server.serve_cold(model, scheme).trace
            trace.breakdown(list(Phase))
            records += trace.record_count
        wall_s = perf_counter() - start
    finally:
        server_module.Environment = plain
    return SimpleNamespace(
        wall_s=wall_s, requests=len(cells), records=records,
        events=sum(env.events_scheduled for env in environments))


def _key_problems(entries):
    """One line per unknown or missing key, naming entry and key."""
    problems = []
    for index, entry in enumerate(entries):
        required, optional = KIND_KEYS[entry.get("kind", "cluster")]
        required = required | {"name", "budget_s"}
        label = f"entry {entry.get('name', f'#{index}')!r}"
        for key in sorted(required - set(entry)):
            problems.append(f"{label}: missing key {key!r}")
        for key in sorted(set(entry) - required - optional - {"kind"}):
            problems.append(f"{label}: unknown key {key!r}")
    return problems


def _measure(entry, rate_hz):
    kind = entry.get("kind", "cluster")
    rate_hz = entry.get("rate_hz", rate_hz)
    if kind == "cold-serve":
        return _cold_serve_grid()
    if kind == "fleet":
        return profile_fleet(
            requests=entry["requests"], rate_hz=rate_hz,
            regions=entry.get("regions", 4),
            jobs=entry.get("jobs", 1),
            routing=entry.get("routing", "round-robin"))
    if kind == "packs":
        return profile_packs(
            requests=entry["requests"], rate_hz=rate_hz,
            instances=entry.get("instances", 2),
            idle_timeout_s=entry.get("idle_timeout_s", 0.05))
    return profile_cluster(
        requests=entry["requests"], rate_hz=rate_hz,
        trace_retention=entry["trace_retention"],
        fast_forward=entry["fast_forward"])


def _wall(entry, profile):
    """The wall-clock reading the entry's budget gates."""
    if entry.get("kind", "cluster") == "packs":
        return profile.wall_pack_s
    return profile.wall_s


def _detail(entry, profile):
    kind = entry.get("kind", "cluster")
    if kind == "fleet":
        return (f"mode={profile.mode}  jobs={profile.jobs}  "
                f"analytic={profile.fast_forward_fraction:.0%}")
    if kind == "packs":
        return (f"restores={profile.pack_restores}  "
                f"speedup={profile.modeled_speedup_vs_cold:.2f}x-cold")
    if kind == "cold-serve":
        return f"records={profile.records}  events={profile.events}"
    return f"retained={profile.peak_retained_records}"


def main(argv):
    if len(argv) != 1:
        print("usage: check_perf_budget.py <budget.json>", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        budget = json.load(handle)
    bad = sorted({entry.get("kind", "cluster") for entry in budget["entries"]}
                 - set(KNOWN_KINDS))
    if bad:
        print(f"unknown budget entry kind(s) {bad}; expected one of "
              f"{list(KNOWN_KINDS)}", file=sys.stderr)
        return 2
    problems = _key_problems(budget["entries"])
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 2
    factor = budget.get("regression_factor", 2.0)
    repeats = budget.get("repeats", 3)
    rate_hz = budget.get("rate_hz", 200.0)
    failures = 0
    width = max(len(entry["name"]) for entry in budget["entries"])
    for entry in budget["entries"]:
        best = best_wall = None
        for _ in range(repeats):
            profile = _measure(entry, rate_hz)
            wall = _wall(entry, profile)
            if best is None or wall < best_wall:
                best, best_wall = profile, wall
        ceiling = factor * entry["budget_s"]
        verdict = "ok" if best_wall <= ceiling else "REGRESSION"
        if "events" in entry and best.events != entry["events"]:
            verdict = f"EVENTS!={entry['events']}"
        if verdict != "ok":
            failures += 1
        print(f"{entry['name']:<{width}}  wall={best_wall:7.3f}s  "
              f"budget={entry['budget_s']:.3f}s  ceiling={ceiling:.3f}s  "
              f"requests={best.requests}  "
              f"{_detail(entry, best)}  {verdict}")
    if failures:
        print(f"{failures} measurement(s) over {factor}x budget or off "
              "their exact count", file=sys.stderr)
        return 1
    print("all measurements within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
