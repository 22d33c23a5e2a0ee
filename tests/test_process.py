import math
from collections import Counter
from dataclasses import dataclass

import pytest

from process_resilience.process import (
    graph_at,
    hitting_time_k_connectivity,
    hitting_time_min_degree,
    pair_count,
    sample_coupled,
    sample_gnm,
    sample_gnp,
    sample_process,
    trace_from_descriptor,
)
from process_resilience.rng import derive_seed

from oracles import is_k_connected_oracle


@dataclass(frozen=True)
class _FixedTrace:
    """Trace stub with an injected arrival order (for worked examples)."""

    n: int
    order: tuple

    @property
    def num_pairs(self):
        return pair_count(self.n)

    def iter_pairs(self):
        return iter(self.order)

    def pairs(self, m):
        return list(self.order[:m])


TRIANGLE_ORDER = _FixedTrace(3, ((0, 1), (0, 2), (1, 2)))


# -- process trace ---------------------------------------------------------

def test_single_pair_process():
    trace = sample_process(2, 123)
    assert trace.pairs(1) == [(0, 1)]


def test_trace_is_deterministic():
    a = sample_process(4, 99).pairs(6)
    b = sample_process(4, 99).pairs(6)
    assert a == b


def test_trace_is_a_permutation():
    for n in (4, 7, 12):
        trace = sample_process(n, 5)
        perm = trace.pairs(trace.num_pairs)
        assert sorted(perm) == [(u, v) for u in range(n) for v in range(u + 1, n)]


def test_first_pair_frequencies_uniform():
    n, trials = 4, 20000
    counts = Counter(sample_process(n, seed).pairs(1)[0] for seed in range(trials))
    sigma = math.sqrt((1 / 6) * (5 / 6) / trials)
    for pair, cnt in counts.items():
        assert abs(cnt / trials - 1 / 6) < 3 * sigma, (pair, cnt)


def test_descriptor_round_trip():
    trace = sample_process(10, 777)
    again = trace_from_descriptor(trace.descriptor())
    assert again == trace
    with pytest.raises(ValueError, match="generator"):
        trace_from_descriptor({"n": 4, "seed": 1, "generator": "other"})


# -- graph_at --------------------------------------------------------------

def test_graph_at_extremes():
    trace = sample_process(5, 3)
    assert graph_at(trace, 0).m == 0
    full = graph_at(trace, trace.num_pairs)
    assert full.m == pair_count(5)


def test_graph_at_nesting():
    trace = sample_process(6, 11)
    prev = set()
    for m in range(trace.num_pairs + 1):
        edges = set(graph_at(trace, m).edges)
        assert prev <= edges
        prev = edges


def test_graph_at_rejects_overflow():
    trace = sample_process(4, 0)
    with pytest.raises(ValueError):
        graph_at(trace, trace.num_pairs + 1)


# -- hitting times ---------------------------------------------------------

def test_hitting_min_degree_fixed_order():
    assert hitting_time_min_degree(TRIANGLE_ORDER, 1) == 2
    assert hitting_time_min_degree(TRIANGLE_ORDER, 2) == 3


def test_hitting_k_connectivity_fixed_order():
    assert hitting_time_k_connectivity(TRIANGLE_ORDER, 1) == 2
    assert hitting_time_k_connectivity(TRIANGLE_ORDER, 2) == 3


def test_hitting_min_degree_matches_recomputation():
    for seed in range(10):
        trace = sample_process(8, seed)
        tau = hitting_time_min_degree(trace, 1)
        assert graph_at(trace, tau).min_degree() >= 1
        assert graph_at(trace, tau - 1).min_degree() == 0
        # naive scan from scratch
        naive = next(m for m in range(trace.num_pairs + 1)
                     if graph_at(trace, m).min_degree() >= 1)
        assert naive == tau


def test_hitting_min_degree_lower_bound_and_monotone_in_k():
    trace = sample_process(9, 17)
    taus = [hitting_time_min_degree(trace, k) for k in (1, 2, 3)]
    assert taus == sorted(taus)
    for k, tau in zip((1, 2, 3), taus):
        assert tau >= math.ceil(k * trace.n / 2)


def test_hitting_k_connectivity_matches_linear_scan():
    for n, k in ((7, 2), (8, 3)):
        for seed in range(8):
            trace = sample_process(n, seed)
            tau = hitting_time_k_connectivity(trace, k)
            naive = next(m for m in range(trace.num_pairs + 1)
                         if is_k_connected_oracle(graph_at(trace, m), k))
            assert tau == naive, (n, k, seed)


def test_min_degree_necessary_for_k_connectivity():
    for seed in range(6):
        trace = sample_process(8, 100 + seed)
        for k in (1, 2):
            assert (hitting_time_min_degree(trace, k)
                    <= hitting_time_k_connectivity(trace, k))


# -- G(n, m) ---------------------------------------------------------------

def test_gnm_extremes():
    assert sample_gnm(4, 6, 2).m == 6
    assert sample_gnm(4, 0, 2).m == 0


def test_gnm_matches_process_prefix():
    g = sample_gnm(6, 7, 31)
    trace = sample_process(6, 31)
    assert g == graph_at(trace, 7)


def test_gnm_uniform_over_three_edge_graphs():
    n, m, trials = 4, 3, 30000
    counts = Counter(sample_gnm(n, m, seed).edges for seed in range(trials))
    assert len(counts) == 20
    sigma = math.sqrt((1 / 20) * (19 / 20) / trials)
    for edges, cnt in counts.items():
        assert abs(cnt / trials - 1 / 20) < 4 * sigma, (edges, cnt)


@pytest.mark.slow
def test_process_and_gnm_frequency_tables_agree():
    # same distribution check via two-sample chi-square on all C(6,3)=20
    # graph outcomes; 0.001 significance, df=19 -> critical value 43.82
    n, m, trials = 4, 3, 100_000
    a = Counter(graph_at(sample_process(n, derive_seed(1, t)), m).edges
                for t in range(trials))
    b = Counter(sample_gnm(n, m, derive_seed(2, t)).edges for t in range(trials))
    stat = 0.0
    for key in set(a) | set(b):
        x, y = a.get(key, 0), b.get(key, 0)
        stat += (x - y) ** 2 / (x + y)
    assert stat < 43.82, stat


# -- G(n, p) ---------------------------------------------------------------

def test_gnp_extremes():
    assert sample_gnp(5, 0.0, 1).m == 0
    assert sample_gnp(5, 1.0, 1).m == pair_count(5)
    with pytest.raises(ValueError):
        sample_gnp(5, 1.5, 1)


def test_gnp_deterministic():
    assert sample_gnp(30, 0.2, 9) == sample_gnp(30, 0.2, 9)


def test_gnp_mean_edge_count():
    n, p, trials = 100, 0.1, 3000
    total = sum(sample_gnp(n, p, seed).m for seed in range(trials))
    mean = total / trials
    expect = pair_count(n) * p
    sigma_mean = math.sqrt(pair_count(n) * p * (1 - p) / trials)
    assert abs(mean - expect) < 3 * sigma_mean, mean


# -- coupled sampling ------------------------------------------------------

def test_coupled_degenerate_cases():
    c = sample_coupled(20, 0.3, 0.0, 5)
    assert c.g_plus == c.g_minus
    assert c.p1 == 0.3
    c = sample_coupled(20, 0.0, 0.25, 5)
    assert c.g_minus.m == 0
    assert c.p1 == 0.25


def test_coupled_containment_and_p1():
    c = sample_coupled(40, 0.15, 0.05, 8)
    assert set(c.g_minus.edges) <= set(c.g_plus.edges)
    assert c.p1 == pytest.approx(1 - (1 - 0.15) * (1 - 0.05))


def test_coupled_edge_frequency():
    n, p0, pp, trials = 50, 0.2, 0.1, 1500
    p1 = 1 - (1 - p0) * (1 - pp)
    total = sum(sample_coupled(n, p0, pp, seed).g_plus.m for seed in range(trials))
    mean = total / trials
    expect = pair_count(n) * p1
    sigma_mean = math.sqrt(pair_count(n) * p1 * (1 - p1) / trials)
    assert abs(mean - expect) < 3 * sigma_mean, mean
