"""Golden v1 pair streams: ``ProcessTrace.pairs``, ``iter_pairs``,
``sample_gnp``, ``sample_coupled`` and the giant of ``sample_gnm`` must keep
reproducing, bit for bit, the sha256 digests recorded in
golden_pairs.json.

The corpus covers full permutations for small n (where the last draws have
N - i = 1), prefixes that end just before, at and just after the 8192-draw
mark of the first stream implementation, the sweep study's
m = ceil(n ln n) at n = 4096, and the binomial samplers at p = 0, p = 1,
sparse and dense p.

Regenerate (only when a new generator id is intended) with
``PYTHONPATH=src python tests/test_pair_golden.py``.
"""

import hashlib
import json
import math
from itertools import islice
from pathlib import Path

import pytest

from process_resilience.graphs import giant_component
from process_resilience.process import (ProcessTrace, sample_coupled,
                                        sample_gnm, sample_gnp)

GOLDEN_PATH = Path(__file__).parent / "golden_pairs.json"

SEEDS = (0, 1, 20260810)

# the sweep study's m = ceil(n ln n) at n = 4096
GIANT_M = math.ceil(4096 * math.log(4096))


def _digest(pairs) -> str:
    text = "".join(f"{u} {v}\n" for u, v in pairs)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _graph_digest(g) -> str:
    body = "".join(f"{u} {v}\n" for u, v in g.edges)
    labels = "" if g.labels is None else " ".join(map(str, g.labels))
    return hashlib.sha256(f"{g.n}\n{body}{labels}\n".encode("ascii")).hexdigest()


def _prefix_lengths(n):
    N = n * (n - 1) // 2
    if N <= 2016:
        return (N,)
    lengths = (1, 8191, 8192, 8193, 20000)
    if n == 4096:
        lengths += (GIANT_M,)
    return lengths


def _pair_cases():
    for n in (2, 3, 4, 7, 64, 1024, 4096):
        for seed in SEEDS:
            for m in _prefix_lengths(n):
                yield n, seed, m


def _gnp_cases():
    for n, p in ((2, 1.0), (7, 1.0), (10, 0.0), (30, 0.2), (100, 0.5),
                 (1000, 0.003), (4096, math.log(4096) / (3 * 4096))):
        for seed in SEEDS:
            yield n, p, seed


def _coupled_cases():
    for n, p0, pp in ((20, 0.3, 0.0), (20, 0.0, 0.25), (200, 0.05, 0.01),
                      (4096, math.log(4096) / (3 * 4096),
                       0.1 * math.log(4096) / (3 * 4096))):
        for seed in SEEDS:
            yield n, p0, pp, seed


def _pairs_key(n, seed, m):
    return f"pairs n={n} seed={seed} m={m}"


def _gnp_key(n, p, seed):
    return f"gnp n={n} p={p!r} seed={seed}"


def _coupled_key(n, p0, pp, seed):
    return f"coupled n={n} p0={p0!r} pp={pp!r} seed={seed}"


def _giant_key(seed):
    return f"gnm giant n=4096 m={GIANT_M} seed={seed}"


def _coupled_digest(n, p0, pp, seed):
    c = sample_coupled(n, p0, pp, seed)
    return _graph_digest(c.g_minus) + " " + _graph_digest(c.g_plus)


def _giant_digest(seed):
    return _graph_digest(giant_component(sample_gnm(4096, GIANT_M, seed)))


def golden_digests() -> dict:
    out = {}
    for case in _pair_cases():
        n, seed, m = case
        out[_pairs_key(*case)] = _digest(ProcessTrace(n, seed).pairs(m))
    for case in _gnp_cases():
        out[_gnp_key(*case)] = _graph_digest(sample_gnp(*case))
    for case in _coupled_cases():
        out[_coupled_key(*case)] = _coupled_digest(*case)
    for seed in SEEDS:
        out[_giant_key(seed)] = _giant_digest(seed)
    return out


def _golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("n, seed, m", list(_pair_cases()))
def test_pairs_match_golden(n, seed, m):
    got = _digest(ProcessTrace(n, seed).pairs(m))
    assert got == _golden()[_pairs_key(n, seed, m)]


@pytest.mark.parametrize("n, seed, m", list(_pair_cases()))
def test_iter_pairs_prefix_matches_golden(n, seed, m):
    got = _digest(islice(ProcessTrace(n, seed).iter_pairs(), m))
    assert got == _golden()[_pairs_key(n, seed, m)]


@pytest.mark.parametrize("n, p, seed", list(_gnp_cases()))
def test_gnp_matches_golden(n, p, seed):
    assert _graph_digest(sample_gnp(n, p, seed)) == _golden()[_gnp_key(n, p, seed)]


@pytest.mark.parametrize("n, p0, pp, seed", list(_coupled_cases()))
def test_coupled_matches_golden(n, p0, pp, seed):
    got = _coupled_digest(n, p0, pp, seed)
    assert got == _golden()[_coupled_key(n, p0, pp, seed)]


@pytest.mark.parametrize("seed", SEEDS)
def test_gnm_giant_matches_golden(seed):
    assert _giant_digest(seed) == _golden()[_giant_key(seed)]


def test_golden_corpus_is_complete():
    keys = ([_pairs_key(*c) for c in _pair_cases()]
            + [_gnp_key(*c) for c in _gnp_cases()]
            + [_coupled_key(*c) for c in _coupled_cases()]
            + [_giant_key(seed) for seed in SEEDS])
    assert len(set(keys)) == len(keys)
    assert sorted(_golden()) == sorted(keys)


if __name__ == "__main__":
    golden = golden_digests()
    lines = [f"{json.dumps(k)}: {json.dumps(golden[k])}" for k in sorted(golden)]
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(golden)} digests to {GOLDEN_PATH}")
