"""Golden edge-count reports: audit_edge_counts must keep reproducing, bit
for bit, the JSON reports recorded in golden_edge_counts.json (holds,
max_observed, every violation's subset, kind, counts and bound, params).

The corpus covers the three modes of the size <= 4 stage: sampled (n > 40
with a bound too tight for the analytic pass) at n = 64, 200 and 500, where
random subsets violate; exhaustive at n = 12 and 30; and analytic. It also
holds p = 0, where every check is vacuous, and graphs with several
components, whose component and giant checks report. Every graph has
n >= 5.

Regenerate (only when a change of results is intended) with
``PYTHONPATH=src python tests/test_edge_count_golden.py``.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from conftest import complete, cycle, path  # noqa: E402
from process_resilience.classify import audit_edge_counts  # noqa: E402
from process_resilience.graphs import build_graph  # noqa: E402
from process_resilience.process import sample_gnp  # noqa: E402

GOLDEN_PATH = Path(__file__).parent / "golden_edge_counts.json"


def _disjoint_union(*graphs):
    edges, offset = [], 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return build_graph(offset, edges)


def golden_cases():
    """(name, graph, audit keyword arguments) for every pinned report."""
    cases = []
    for n, p, c, trials in ((64, 0.1, 0.05, 60), (200, 0.03, 0.03, 40),
                            (500, 0.012, 0.02, 25)):
        for seed in range(2):
            cases.append((f"sampled G({n}, {p}) c={c} seed={seed}",
                          sample_gnp(n, p, 10 + seed),
                          {"p": p, "c": c, "subset_trials": trials,
                           "seed": seed}))
    cases.append(("exhaustive G(12, 0.4) c=0.3", sample_gnp(12, 0.4, 3),
                  {"p": 0.4, "c": 0.3, "subset_trials": 40, "seed": 4}))
    cases.append(("exhaustive G(30, 0.2) c=0.2", sample_gnp(30, 0.2, 5),
                  {"p": 0.2, "c": 0.2, "subset_trials": 40, "seed": 6}))
    cases.append(("exhaustive K_10 c=0.5", complete(10),
                  {"p": 0.2, "c": 0.5, "subset_trials": 30, "seed": 5}))
    cases.append(("analytic G(300, 0.05) c=1.5", sample_gnp(300, 0.05, 7),
                  {"p": 0.05, "c": 1.5, "subset_trials": 50, "seed": 8}))
    cases.append(("analytic C_50 c=3", cycle(50),
                  {"p": 0.04, "c": 3.0, "subset_trials": 20, "seed": 9}))
    cases.append(("p=0 G(80, 0.05)", sample_gnp(80, 0.05, 11),
                  {"p": 0.0, "c": 0.1, "subset_trials": 20, "seed": 12}))
    cases.append(("components G(150, 0.008) c=0.1", sample_gnp(150, 0.008, 13),
                  {"p": 0.008, "c": 0.1, "subset_trials": 30, "seed": 14}))
    cases.append(("components K_6+K_5+P_7+isolated c=0.2",
                  _disjoint_union(complete(6), complete(5), path(7),
                                  build_graph(3, [])),
                  {"p": 0.3, "c": 0.2, "subset_trials": 30, "seed": 15}))
    return cases


def report_dict(rep) -> dict:
    return json.loads(json.dumps(rep.to_json_dict()))


def _golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


_CASES = golden_cases()


@pytest.mark.parametrize("name, g, kwargs", _CASES,
                         ids=[case[0] for case in _CASES])
def test_edge_counts_match_golden_report(name, g, kwargs):
    assert report_dict(audit_edge_counts(g, **kwargs)) == _golden()[name]


def test_golden_corpus_is_complete():
    names = [case[0] for case in _CASES]
    assert len(set(names)) == len(names)
    assert sorted(_golden()) == sorted(names)
    assert all(g.n >= 5 for _, g, _ in _CASES)


if __name__ == "__main__":
    golden = {name: report_dict(audit_edge_counts(g, **kwargs))
              for name, g, kwargs in _CASES}
    lines = [f"{json.dumps(name)}: {json.dumps(golden[name], sort_keys=True)}"
             for name in sorted(golden)]
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(golden)} reports to {GOLDEN_PATH}")
