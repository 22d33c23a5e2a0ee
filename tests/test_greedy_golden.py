"""Golden greedy certificates: greedy_partition_attack must keep reproducing,
bit for bit, the certificates recorded in golden_greedy.json (sides, H,
max_ratio, satisfied and diagnostics of ``outcome.to_json_dict(g)``), and
the collapse recorded there must still raise.

Every run is on the giant of a seeded G(n, m), n = 64-2048, with tiny
vertices present and at least one rearrangement move, so that both the
tiny cap deg/2 and the star cap (1/2 + eps) deg are exercised.

Regenerate (only when a change of results is intended) with
``PYTHONPATH=src python tests/test_greedy_golden.py``.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from process_resilience.classify import classify_vertices  # noqa: E402
from process_resilience.graphs import giant_component  # noqa: E402
from process_resilience.process import pair_count, sample_gnm  # noqa: E402
from process_resilience.resilience import (AttackError,  # noqa: E402
                                           greedy_partition_attack)

GOLDEN_PATH = Path(__file__).parent / "golden_greedy.json"

# (n, m, graph seed, delta, d_threshold factor, epsilon, attack seed); the
# threshold is factor * n * p with p = m / C(n, 2)
RUNS = (
    (64, 200, 0, 0.5, 0.7, Fraction(1, 10), 0),
    (128, 400, 1, 0.5, 0.7, Fraction(1, 10), 1),
    (256, 900, 0, 0.3, 0.8, Fraction(1, 10), 0),
    (512, 2600, 0, 0.5, 0.7, Fraction(1, 4), 0),
    (1024, 5000, 1, 0.5, 0.7, Fraction(1, 100), 1),
    (1024, 5000, 1, 0.3, 0.8, Fraction(1, 10), 1),
    (2048, 11000, 2, 0.5, 0.7, Fraction(1, 10), 2),
)
COLLAPSE = (64, 150, 0, 0.5, 0.7, Fraction(1, 10), 0)


def run_name(run) -> str:
    n, m, gseed, delta, factor, eps, seed = run
    return (f"G({n}, {m}) seed={gseed} delta={delta} factor={factor} "
            f"eps={eps} attack seed={seed}")


def run_attack(run):
    """(giant, classification, outcome) of one run; may raise AttackError."""
    n, m, gseed, delta, factor, eps, seed = run
    g = giant_component(sample_gnm(n, m, gseed))
    p = m / pair_count(n)
    cls = classify_vertices(g, p, delta)
    return g, cls, greedy_partition_attack(g, cls, factor * n * p, eps, seed)


def record(run) -> dict:
    try:
        g, _, outcome = run_attack(run)
    except AttackError as exc:  # the collapse case records its exception type
        return {"raises": type(exc).__name__}
    return outcome.to_json_dict(g)


def _golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("run", RUNS, ids=[run_name(r) for r in RUNS])
def test_greedy_matches_golden_certificate(run):
    g, cls, outcome = run_attack(run)
    assert cls.tiny and outcome.diagnostics["moves"] > 0
    assert outcome.to_json_dict(g) == _golden()[run_name(run)]


def test_greedy_collapse_matches_golden():
    assert _golden()[run_name(COLLAPSE)] == {"raises": "PartitionCollapsedError"}
    assert record(COLLAPSE) == {"raises": "PartitionCollapsedError"}


def test_golden_corpus_is_complete():
    names = [run_name(r) for r in RUNS + (COLLAPSE,)]
    assert len(set(names)) == len(names)
    assert sorted(_golden()) == sorted(names)


if __name__ == "__main__":
    golden = {run_name(r): record(r) for r in RUNS + (COLLAPSE,)}
    lines = [f"{json.dumps(name)}: {json.dumps(golden[name], sort_keys=True)}"
             for name in sorted(golden)]
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(golden)} records to {GOLDEN_PATH}")
