"""Golden exact results: find_k_conn_attack and the exact mode of
connectivity_resilience_threshold must keep reproducing, bit for bit, the
certificates and reports recorded in golden_exact.json.

The certificates cover k = 2, 3 and alpha = 1/3, 1/2, 2/3 on K_16, K_{8,8},
the circulant C_16(1, 2), the 4-cube Q_4 and the giants of G(16, m) for
m = 40, 60, 90, with the None results of the resilient cases. The exact
thresholds, with their witnesses, are those of K_20, K_24, K_{12,12} and
G(24, 200), which sit at or near the exact-mode limit.

Regenerate (only when a change of results is intended) with
``PYTHONPATH=src python tests/test_exact_golden.py``.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from conftest import circulant, complete, hypercube  # noqa: E402
from process_resilience.graphs import build_graph, giant_component  # noqa: E402
from process_resilience.process import sample_gnm  # noqa: E402
from process_resilience.resilience import (  # noqa: E402
    BudgetRule, connectivity_resilience_threshold, find_k_conn_attack)

GOLDEN_PATH = Path(__file__).parent / "golden_exact.json"


def complete_bipartite(a, b):
    return build_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


KCONN_GRAPHS = [("K_16", complete(16)), ("K_{8,8}", complete_bipartite(8, 8)),
                ("C_16(1,2)", circulant(16, (1, 2))), ("Q_4", hypercube(4))]
KCONN_GRAPHS += [(f"G(16, {m}) seed=0 giant", giant_component(sample_gnm(16, m, 0)))
                 for m in (40, 60, 90)]
ALPHAS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
KCONN_CASES = [(f"kconn {name} k={k} alpha={alpha}", g, k, alpha)
               for name, g in KCONN_GRAPHS for k in (2, 3) for alpha in ALPHAS]
THRESHOLD_CASES = [("exact K_20", complete(20)), ("exact K_24", complete(24)),
                   ("exact K_{12,12}", complete_bipartite(12, 12)),
                   ("exact G(24, 200) seed=0", sample_gnm(24, 200, 0))]


def kconn_record(g, k, alpha):
    cut = find_k_conn_attack(g, BudgetRule(alpha, k), k)
    if cut is None:
        return None
    return {"S": sorted(cut.separator), "A": sorted(cut.side_a),
            "B": sorted(cut.side_b)}


def threshold_record(g):
    rep = connectivity_resilience_threshold(g)
    return {"threshold": str(rep.threshold), "method": rep.method,
            "A": sorted(rep.witness.side_a), "B": sorted(rep.witness.side_b)}


def _golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name, g, k, alpha", KCONN_CASES,
                         ids=[case[0] for case in KCONN_CASES])
def test_k_conn_attack_matches_golden_certificate(name, g, k, alpha):
    assert kconn_record(g, k, alpha) == _golden()[name]


@pytest.mark.parametrize("name, g", THRESHOLD_CASES,
                         ids=[case[0] for case in THRESHOLD_CASES])
def test_exact_threshold_matches_golden_report(name, g):
    assert threshold_record(g) == _golden()[name]


def test_golden_corpus_is_complete():
    names = [case[0] for case in KCONN_CASES + THRESHOLD_CASES]
    assert len(set(names)) == len(names)
    assert sorted(_golden()) == sorted(names)
    # both outcomes of the certificate search are pinned
    records = [_golden()[case[0]] for case in KCONN_CASES]
    assert None in records and any(r and r["S"] for r in records)


if __name__ == "__main__":
    golden = {name: kconn_record(g, k, alpha) for name, g, k, alpha in KCONN_CASES}
    golden.update((name, threshold_record(g)) for name, g in THRESHOLD_CASES)
    lines = [f"{json.dumps(name)}: {json.dumps(golden[name], sort_keys=True)}"
             for name in sorted(golden)]
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(golden)} records to {GOLDEN_PATH}")
