"""Golden threshold reports: both modes of connectivity_resilience_threshold
must keep reproducing, bit for bit, the reports recorded in
golden_thresholds.json (threshold, method and witness sides).

The corpus covers the graphs the hitting study feeds the two searches (the
giants of G(18, tau_1) for the exact search and of G(1024, tau_1) for the
local search), plus cycles and complete graphs, whose many tied ratios
exercise the local search's plateau rule, a star and a path, where the
side-emptying guards bite, and seeded random graphs.

Regenerate (only when a change of results is intended) with
``PYTHONPATH=src python tests/test_threshold_golden.py``.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from conftest import complete, cycle, path, star  # noqa: E402
from process_resilience.graphs import giant_component, is_connected  # noqa: E402
from process_resilience.process import (ProcessTrace, graph_at,  # noqa: E402
                                        hitting_time_min_degree, sample_gnm)
from process_resilience.resilience import connectivity_resilience_threshold  # noqa: E402

GOLDEN_PATH = Path(__file__).parent / "golden_thresholds.json"


def _hitting_giant(n, seed):
    trace = ProcessTrace(n, seed)
    return giant_component(graph_at(trace, hitting_time_min_degree(trace, 1)))


def _gnm_giant(n, m, seed):
    g = sample_gnm(n, m, seed)
    return g if is_connected(g) else giant_component(g)


def golden_cases():
    """(name, graph, threshold keyword arguments) for every pinned report."""
    cases = []
    for seed in range(6):
        cases.append((f"exact hitting giant n=18 seed={seed}",
                      _hitting_giant(18, seed), {}))
    for name, g in (("exact C_9", cycle(9)), ("exact K_7", complete(7)),
                    ("exact star_8", star(8)), ("exact G(14, 30)",
                                               _gnm_giant(14, 30, 11))):
        cases.append((name, g, {}))
    for seed in range(4):
        cases.append((f"local hitting giant n=1024 seed={seed}",
                      _hitting_giant(1024, seed),
                      {"mode": "local_search", "restarts": 8, "seed": seed}))
    for n in (7, 12, 31):
        cases.append((f"local C_{n}", cycle(n),
                      {"mode": "local_search", "restarts": 4, "seed": n}))
    for n in (5, 8, 11):
        cases.append((f"local K_{n}", complete(n),
                      {"mode": "local_search", "restarts": 4, "seed": n}))
    cases.append(("local star_7", star(7),
                  {"mode": "local_search", "restarts": 3, "seed": 1}))
    cases.append(("local path_10", path(10),
                  {"mode": "local_search", "restarts": 3, "seed": 2}))
    for i, (n, m) in enumerate(((9, 16), (20, 45), (40, 120), (64, 200),
                                (128, 640), (200, 700), (256, 1500))):
        cases.append((f"local G({n}, {m})", _gnm_giant(n, m, 500 + i),
                      {"mode": "local_search", "restarts": 6, "seed": 40 + i}))
    return cases


def report_dict(rep) -> dict:
    return {"threshold": str(rep.threshold), "method": rep.method,
            "A": sorted(rep.witness.side_a), "B": sorted(rep.witness.side_b)}


def _golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


_CASES = golden_cases()


@pytest.mark.parametrize("name, g, kwargs", _CASES,
                         ids=[case[0] for case in _CASES])
def test_threshold_matches_golden_report(name, g, kwargs):
    rep = connectivity_resilience_threshold(g, **kwargs)
    assert report_dict(rep) == _golden()[name]


def test_golden_corpus_is_complete():
    names = [case[0] for case in _CASES]
    assert len(set(names)) == len(names)
    assert sorted(_golden()) == sorted(names)


if __name__ == "__main__":
    golden = {name: report_dict(connectivity_resilience_threshold(g, **kwargs))
              for name, g, kwargs in _CASES}
    lines = [f"{json.dumps(name)}: {json.dumps(golden[name], sort_keys=True)}"
             for name in sorted(golden)]
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(golden)} reports to {GOLDEN_PATH}")
