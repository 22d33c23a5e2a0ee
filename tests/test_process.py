import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from process_resilience import process
from process_resilience.graphs import _pair_arrays
from process_resilience.process import (
    ProcessTrace,
    _pairs_from_indices,
    _repeated,
    graph_at,
    hitting_time_k_connectivity,
    hitting_time_min_degree,
    pair_count,
    sample_coupled,
    sample_gnm,
    sample_gnp,
    sample_process,
)
from process_resilience.rng import GENERATOR_ID, derive_seed

from oracles import (gnp_indices, index_from_pair, is_k_connected_oracle,
                     repeated_positions_by_argsort, stream_indices)


@dataclass(frozen=True)
class _FixedTrace:
    """Trace stub with an injected arrival order (for worked examples)."""

    n: int
    order: tuple

    @property
    def num_pairs(self):
        return pair_count(self.n)

    def _endpoints(self, m):  # what every stream reader reads
        if not 0 <= m <= self.num_pairs:
            raise ValueError(f"m must be in [0, {self.num_pairs}], got {m}")
        return _pair_arrays(self.order[:m])

    def _ranks(self, m):  # what every graph reader reads
        us, vs = self._endpoints(m)
        return np.array([index_from_pair(self.n, u, v)
                         for u, v in zip(us.tolist(), vs.tolist())], dtype=np.int64)


def _order_of(n, first):
    """The pairs ``first`` (repeats dropped), then every other pair in
    lexicographic order."""
    first = tuple(dict.fromkeys(first))
    rest = tuple(p for p in combinations(range(n), 2) if p not in first)
    return _FixedTrace(n, first + rest)


TRIANGLE_ORDER = _FixedTrace(3, ((0, 1), (0, 2), (1, 2)))

# two triangles sharing vertex 2: min degree 2 after six arrivals, but 2 is
# a cut vertex until the seventh, (0, 3), arrives
BOWTIE_ORDER = _FixedTrace(5, ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4),
                               (0, 3), (0, 4), (1, 3), (1, 4)))

# two disjoint edges cover every vertex; the third arrival connects them
PATH_ORDER = _order_of(4, ((0, 1), (2, 3), (1, 2)))

# a perfect matching, then two disjoint K4s: min degree 1 after 4 arrivals,
# connected only at the 13th, two prefix extensions past the first chunk
TWO_K4_ORDER = _order_of(8, ((0, 1), (2, 3), (4, 5), (6, 7))
                         + tuple(p for p in combinations(range(8), 2)
                                 if (p[0] < 4) == (p[1] < 4)))

# K5 on 0..4 first: vertex 5 is isolated until the 11th arrival, two prefix
# extensions past the min-degree search's first chunk of 3
K5_ORDER = _order_of(6, tuple(combinations(range(5), 2)))

FIXED_ORDERS = (TRIANGLE_ORDER, BOWTIE_ORDER, PATH_ORDER, TWO_K4_ORDER, K5_ORDER)


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


def test_descriptor_names_the_trace_and_its_generator():
    trace = sample_process(10, 777)
    assert trace.descriptor() == {"n": 10, "seed": 777, "generator": GENERATOR_ID}


@pytest.mark.parametrize("make", [
    lambda: ProcessTrace(-3, 0),
    lambda: sample_gnm(-3, 0, 1),
    lambda: sample_gnp(-3, 0.0, 1),
    lambda: sample_gnp(-3, 0.5, 1),
    lambda: sample_coupled(-3, 0.1, 0.2, 1),
])
def test_negative_vertex_count_is_rejected(make):
    with pytest.raises(ValueError, match="n must be an integer >= 0, got -3"):
        make()


@pytest.mark.parametrize("make, named", [
    (lambda: sample_process(3.5, 0), "n must be an integer >= 2, got 3.5"),
    (lambda: ProcessTrace(True, 0), "n must be an integer >= 0, got True"),
    (lambda: sample_gnm(4.0, 2, 0), "n must be an integer >= 0, got 4.0"),
    (lambda: sample_process(5, 0)._endpoints(2.5), "m must be an integer in [0, 10], got 2.5"),
    (lambda: graph_at(sample_process(5, 0), 2.0), "m must be an integer in [0, 10], got 2.0"),
])
def test_non_integer_vertex_or_pair_count_is_rejected(make, named):
    # each once ran on: 3.5 gave num_pairs 4.0, and a graph of the trace
    # then failed with a numpy TypeError
    with pytest.raises(ValueError, match=re.escape(named)):
        make()


@pytest.mark.parametrize("hitting_time", [hitting_time_min_degree,
                                          hitting_time_k_connectivity])
@pytest.mark.parametrize("n", [0, 1])
def test_hitting_times_refuse_a_trace_with_no_vertex_pair(hitting_time, n):
    # the error once named k's domain, [1, 0] at n = 1
    with pytest.raises(ValueError, match=f"trace of n >= 2 vertices, got n = {n}$"):
        hitting_time(ProcessTrace(n, 0), 1)


@pytest.mark.parametrize("n, p", [(5, 0.0), (5, 1.0), (1, 0.5)])
def test_gnp_checks_a_seed_it_draws_nothing_from(n, p):
    # at p = 0 or 1, or with no vertex pair, a float seed once passed unread
    with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
        sample_gnp(n, p, 1.5)
    with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
        sample_coupled(n, p, p, 1.5)


def test_an_integer_like_vertex_count_is_kept_as_an_int():
    trace = ProcessTrace(np.int64(6), 1)
    assert type(trace.n) is int and trace == ProcessTrace(6, 1)
    assert graph_at(trace, np.int64(3)) == graph_at(ProcessTrace(6, 1), 3)


def _chunk_ends(N):
    """Prefix lengths iter_pairs grows to: 64, 128, 256, ..., then N."""
    ends = [64]
    while ends[-1] < N:
        ends.append(2 * ends[-1])
    return [min(end, N) for end in ends]


def _drawn(trace):
    """How many pairs of its permutation the trace has drawn."""
    return len(trace._prefix[2])


def test_pairs_equal_iter_pairs_across_chunk_boundaries():
    # fresh traces, so each m is drawn in one chunk by pairs and in the
    # doubling chunks by iter_pairs
    trace = sample_process(260, 3)
    ms = sorted({0, 1, trace.num_pairs - 1, trace.num_pairs}
                | {e + d for e in _chunk_ends(trace.num_pairs) for d in (-1, 0, 1)})
    # islice bounds the walk, so a stream that never ends fails here
    full = list(islice(trace.iter_pairs(), trace.num_pairs + 1))
    assert len(full) == trace.num_pairs == _drawn(trace)
    assert trace.pairs(trace.num_pairs) == full
    for m in ms:
        if m <= trace.num_pairs:
            assert (sample_process(260, 3).pairs(m)
                    == list(islice(sample_process(260, 3).iter_pairs(), m))
                    == full[:m]), m


@pytest.mark.parametrize("n, steps", [
    (2, (0, 1, 1)), (5, (1,) * 10), (5, (3, 0, 7)), (30, (7, 1, 100, 64, 300)),
    (300, (1, 2, 4000, 17, 40000, 44850)),
])
def test_prefix_grown_in_any_steps_matches_one_draw(n, steps):
    """Each draw replays the steps drawn before it: a prefix grown in any
    steps, read back by every reader, is the permutation one draw gives."""
    whole = sample_process(n, 9).pairs(pair_count(n))
    trace = sample_process(n, 9)
    m = 0
    for step in steps:
        m = min(m + step, trace.num_pairs)
        us, vs = trace._endpoints(m)
        assert _drawn(trace) == m
        assert list(zip(us.tolist(), vs.tolist())) == whole[:m]
        assert not (us.flags.writeable or vs.flags.writeable)
        assert trace.pairs(m // 2) == whole[:m // 2]
        assert graph_at(trace, m // 2).edges == tuple(sorted(whole[:m // 2]))
    assert list(islice(trace.iter_pairs(), len(whole) + 1)) == whole


@st.composite
def _read_schedules(draw):
    """(n, ms): a vertex count and the prefix lengths read from one trace,
    in reading order; a read below the drawn prefix draws nothing."""
    n = draw(st.integers(2, 300))
    N = pair_count(n)
    return n, tuple(draw(st.lists(st.integers(0, N) | st.just(N), max_size=6)))


@settings(max_examples=60, deadline=None)
@given(case=_read_schedules(), seed=st.integers(0, 2 ** 64 - 1))
@example(case=(2, (0, 1, 1)), seed=0)
# chunks of one step
@example(case=(5, tuple(range(1, 11))), seed=3)
# a first draw long enough to be flagged, then up to N
@example(case=(20, (128, 190)), seed=0)
# (a) of _ranks: one j repeats in the draw, and no other step collides
@example(case=(300, (200,)), seed=5)
# (b): one j lands on a later step of its draw; the replay to N walks that
# step again and reads the position it wrote
@example(case=(300, (200, 44850)), seed=1)
# no step of the first draw collides; the second replays it, and its steps
# read positions the first draw's steps wrote
@example(case=(100, (128, 256)), seed=17)
# small draws that cross _FLAG_MIN_STEPS: walked whole below it, flagged
# from it on, each replaying the steps drawn before
@example(case=(300, (100, 127, 128, 129, 600)), seed=2)
# N > 2**31: the draws and ranks are kept as int64, not int32
@example(case=(70000, (100, 300)), seed=4)
def test_endpoints_match_the_step_by_step_walk(case, seed):
    """Every read of a trace, however its prefix was grown, equals the
    stream walked one step at a time."""
    n, ms = case
    expected = stream_indices(n, seed, max(ms, default=0))
    trace = ProcessTrace(n, seed)
    for m in ms:
        us, vs = trace._endpoints(m)
        assert [index_from_pair(n, u, v)
                for u, v in zip(us.tolist(), vs.tolist())] == expected[:m]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 53) | st.integers(0, 300), max_size=400))
# values equal mod 2**16 but different, next to an odd repeated value
@example([5, 5 + 2 ** 16, 3 * 2 ** 16 + 5, 7, 7])
@example([2 ** 16 + 1, 1])
# a value drawn three times, and a pair
@example([9, 2 ** 40 + 9, 9, 4, 9, 2 ** 40 + 9])
# no repeats, and nothing at all
@example(list(range(0, 2 ** 20, 4099)))
@example([])
def test_repeated_positions_match_the_argsort_reference(values):
    values = np.array(values, dtype=np.int64)
    assert _repeated(values).tolist() == repeated_positions_by_argsort(values)


def test_graphs_build_from_ranks_and_endpoints_decode_once(monkeypatch):
    """Samplers and graph_at build from pair ranks without decoding them;
    the first endpoint read decodes every drawn rank, and only a read past
    the drawn prefix decodes again, just the new ranks."""
    decodes = []
    decode = process._pairs_from_indices

    def counted_decode(n, idx):
        decodes.append(len(idx))
        return decode(n, idx)

    monkeypatch.setattr(process, "_pairs_from_indices", counted_decode)
    trace = sample_process(300, 4)
    g = graph_at(trace, 2000)
    assert g == sample_gnm(300, 2000, 4) and graph_at(trace, 700).m == 700
    sample_gnp(300, 0.1, 4)
    sample_coupled(300, 0.05, 0.05, 4)
    assert decodes == [] and _drawn(trace) == 2000
    us, vs = trace._endpoints(700)
    assert decodes == [2000]
    assert trace.pairs(2000)[:700] == list(zip(us.tolist(), vs.tolist()))
    assert decodes == [2000]
    assert set(trace.pairs(2000)) == set(g.edges)
    trace._endpoints(2500)
    assert decodes == [2000, 500] and _drawn(trace) == 2500
    expected = stream_indices(300, 4, 2500)
    us, vs = trace._endpoints(2500)
    assert [index_from_pair(300, u, v)
            for u, v in zip(us.tolist(), vs.tolist())] == expected
    assert trace._ranks(2500).tolist() == expected


@pytest.mark.parametrize("j", [0, 1, 63, 64, 65, 128, 129, 1000, 4095, 4096])
def test_iter_pairs_stopped_early_draws_at_most_twice_what_it_used(j):
    trace = sample_process(100, 4)
    assert len(list(islice(trace.iter_pairs(), j))) == j
    assert _drawn(trace) <= max(64, 2 * j)


def test_trace_equals_a_fresh_trace_after_drawing():
    trace = sample_process(16, 5)
    hitting_time_k_connectivity(trace, 2)
    list(islice(trace.iter_pairs(), 70))
    fresh = ProcessTrace(16, 5)
    assert _drawn(trace) > 0 == _drawn(fresh)
    assert trace == fresh and hash(trace) == hash(fresh)
    assert repr(trace) == repr(fresh) == "ProcessTrace(n=16, seed=5)"
    assert trace != ProcessTrace(16, 6) and trace != ProcessTrace(17, 5)
    assert trace.descriptor() == fresh.descriptor()


def _decode_check(n, idx):
    idx = np.asarray(idx, dtype=np.int64)
    us, vs = _pairs_from_indices(n, idx)
    assert ((0 <= us) & (us < vs) & (vs < n)).all()
    for i, u, v in zip(idx.tolist(), us.tolist(), vs.tolist()):
        assert index_from_pair(n, u, v) == i, (n, i, u, v)


def _row_starts(n, rows):
    rows = np.asarray(rows, dtype=np.int64)
    return rows * (2 * n - 1 - rows) // 2


def test_pair_decode_at_every_row_start_for_small_n():
    for n in (2, 3, 4, 5, 7, 64, 1000):
        N = pair_count(n)
        starts = _row_starts(n, np.arange(n - 1))
        idx = np.concatenate((starts - 1, starts, starts + 1, [N - 1]))
        _decode_check(n, idx[(0 <= idx) & (idx < N)])
        _decode_check(n, np.arange(N))


@pytest.mark.parametrize("n", [4096, 2 ** 20 + 7, 2 ** 26 + 1, 2 ** 27 - 1, 2 ** 27])
def test_pair_decode_is_exact_up_to_n_2_pow_27(n):
    N = pair_count(n)
    rng = np.random.default_rng(n)
    rows = np.concatenate((np.arange(300), n - 2 - np.arange(300),
                           rng.integers(0, n - 1, 3000)))
    starts = _row_starts(n, rows)
    idx = np.concatenate((starts - 1, starts, starts + 1, [N - 1],
                          rng.integers(0, N, 3000)))
    _decode_check(n, idx[(0 <= idx) & (idx < N)])


@pytest.mark.parametrize("shift", [2.0, -2.0])
def test_pair_decode_corrects_a_guess_a_row_off(monkeypatch, shift):
    # the float guess is never a row low at the indices the other decode
    # tests try, so the second integer pass never steps there; a square
    # root moved by 2 puts almost every guess one row low (shift > 0), or
    # every guess one row high, and the passes must step each index back
    # onto its row
    sqrt = np.sqrt
    monkeypatch.setattr(np, "sqrt", lambda x: sqrt(x) + shift)
    for n in (2, 3, 7, 64, 1000):
        _decode_check(n, np.arange(pair_count(n)))


@pytest.mark.parametrize("n", [2, 3, 4096, 2 ** 20, 2 ** 26 + 3])
def test_pair_decode_is_exact_at_every_row_end(n):
    # the first and last index of every row, where a guess of the row is
    # likeliest to be off by one; rows are decoded 2**19 at a time
    for lo in range(0, n - 1, 2 ** 19):
        rows = np.arange(lo, min(lo + 2 ** 19, n - 1))
        firsts = _row_starts(n, rows)
        lasts = firsts + (n - 2 - rows)
        for i in (0, -1):  # the chunk's end rows, by index_from_pair
            u = int(rows[i])
            assert index_from_pair(n, u, u + 1) == firsts[i]
            assert index_from_pair(n, u, n - 1) == lasts[i]
        us, vs = _pairs_from_indices(n, np.concatenate((firsts, lasts)))
        assert np.array_equal(us, np.tile(rows, 2))
        assert np.array_equal(vs, np.concatenate((rows + 1, np.full(len(rows), n - 1))))


def test_trace_rejects_pair_counts_from_2_pow_53():
    # the draw i + int(u * (N - i)) is exact only while N < 2**53; no pair
    # is streamed here
    assert sample_process(2 ** 27, 0).num_pairs == 2 ** 53 - 2 ** 26
    with pytest.raises(ValueError, match="2\\*\\*53"):
        sample_process(2 ** 27 + 1, 0)


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
    assert hitting_time_min_degree(BOWTIE_ORDER, 2) == 6
    assert hitting_time_k_connectivity(BOWTIE_ORDER, 2) == 7
    assert hitting_time_min_degree(PATH_ORDER, 1) == 2
    assert hitting_time_k_connectivity(PATH_ORDER, 1) == 3
    assert hitting_time_min_degree(TWO_K4_ORDER, 1) == 4
    assert hitting_time_k_connectivity(TWO_K4_ORDER, 1) == 13
    assert hitting_time_min_degree(K5_ORDER, 1) == 11
    assert hitting_time_k_connectivity(K5_ORDER, 1) == 11


@pytest.mark.parametrize("trace", FIXED_ORDERS, ids=lambda t: f"n={t.n}")
def test_hitting_times_of_fixed_orders_match_linear_scan(trace):
    assert sorted(trace.order) == list(combinations(range(trace.n), 2))
    prefixes = [graph_at(trace, m) for m in range(trace.num_pairs + 1)]
    for k in range(1, trace.n):
        assert hitting_time_min_degree(trace, k) == next(
            m for m, g in enumerate(prefixes) if g.min_degree() >= k), k
        assert hitting_time_k_connectivity(trace, k) == next(
            m for m, g in enumerate(prefixes) if is_k_connected_oracle(g, k)), k


def test_hitting_times_of_a_single_pair_and_of_k_n_minus_one():
    for seed in range(4):
        trace = sample_process(2, seed)
        assert hitting_time_min_degree(trace, 1) == 1
        assert hitting_time_k_connectivity(trace, 1) == 1
        trace = sample_process(5, seed)
        assert hitting_time_min_degree(trace, 4) == trace.num_pairs
        assert hitting_time_k_connectivity(trace, 4) == trace.num_pairs
        # k = 3 starts at 8 of the 10 pairs, so a search that is still
        # false there grows its prefix only as far as N
        prefixes = [graph_at(trace, m) for m in range(trace.num_pairs + 1)]
        assert hitting_time_min_degree(trace, 3) == next(
            m for m, g in enumerate(prefixes) if g.min_degree() >= 3)
        assert hitting_time_k_connectivity(trace, 3) == next(
            m for m, g in enumerate(prefixes) if is_k_connected_oracle(g, 3))


def test_first_hit_raises_on_a_test_false_at_every_pair_count():
    """A test still false at m = N breaks the search's contract: it raises
    instead of probing N forever."""
    with pytest.raises(RuntimeError, match="N = 6.*every test must hold at N"):
        process._first_hit(ProcessTrace(4, 0), 0, lambda us, vs: False)


def test_hitting_searches_draw_each_pair_once(monkeypatch):
    """A search grows the trace's one prefix by a quarter of its length, at
    least n pairs, so it draws fewer than 1.25 tau + n pairs; k-connectivity
    reads the prefix its min-degree start drew, and builds one graph when
    tau_conn = tau_1."""
    builds = []
    build = process.graph_at

    def counted_build(trace, m):
        builds.append(m)
        return build(trace, m)

    monkeypatch.setattr(process, "graph_at", counted_build)
    for seed in range(5):
        trace = sample_process(1024, seed)
        tau = hitting_time_min_degree(trace, 1)
        drawn = _drawn(trace)
        assert tau <= drawn < 1.25 * tau + trace.n, seed
        tau_conn = hitting_time_k_connectivity(trace, 1)
        assert tau_conn == tau and builds == [tau], seed
        assert _drawn(trace) == drawn, seed
        graph_at(trace, tau)
        assert _drawn(trace) == drawn, seed
        builds.clear()


@pytest.mark.parametrize("m", [0, 300, 900, 3000])
def test_kcore_trial_reads_draw_each_pair_once(m):
    """The kcore trial body: G_m, then tau_3, then G_tau_3, all from one
    trace, draw at most max(m, 1.25 tau_3 + n) pairs."""
    for seed in range(4):
        trace = sample_process(256, seed)
        graph_at(trace, m)
        tau = hitting_time_min_degree(trace, 3)
        graph_at(trace, tau)
        assert max(m, tau) <= _drawn(trace) <= max(m, 1.25 * tau + trace.n), seed


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
    for n, k in ((6, 1), (7, 1), (7, 2), (8, 3)):
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


@given(n=st.integers(0, 300), p=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 64 - 1))
@settings(max_examples=200, deadline=None)
@example(n=50, p=0.0, seed=1)
@example(n=50, p=1.0, seed=1)
@example(n=0, p=0.5, seed=3)
@example(n=1, p=0.5, seed=3)
# 22513 pairs from about 22600 doubles: the draw spans three blocks
@example(n=300, p=0.5, seed=3)
# one quotient lies within the recompute window, and np.log floors it alike
@example(n=3000, p=1e-4, seed=27)
# about 2000 quotients near 2**50, all in the window: at one of them the
# floor of the np.log quotient is one off that of the math.log one
@example(n=2 ** 31, p=2.0 ** -50, seed=5)
# p so small that every quotient overflows to infinity or exceeds N
@example(n=50, p=5e-324, seed=0)
@example(n=50, p=1e-310, seed=0)
def test_gnp_indices_match_the_scalar_skip_loop(n, p, seed):
    assert process._gnp_indices(n, p, seed).tolist() == gnp_indices(n, p, seed)


@pytest.mark.parametrize("p", [5e-324, 1e-310])
def test_subnormal_p_samples_no_edges(p):
    assert sample_gnp(50, p, 0).m == 0
    c = sample_coupled(50, p, p, 0)
    assert c.g_minus.m == c.g_plus.m == 0
    c = sample_coupled(50, 0.1, p, 0)
    assert c.g_plus == c.g_minus and c.g_minus.m > 0


# -- coupled sampling ------------------------------------------------------

def test_coupled_degenerate_cases():
    c = sample_coupled(20, 0.3, 0.0, 5)
    assert c.g_plus == c.g_minus
    assert c.p1 == 0.3
    c = sample_coupled(20, 0.0, 0.25, 5)
    assert c.g_minus.m == 0
    assert c.p1 == 0.25
    for n in (0, 1, 20):
        c = sample_coupled(n, 0.0, 0.0, 5)
        assert c.g_plus.n == n and c.g_plus.m == 0
    c = sample_coupled(3, 1.0, 1.0, 5)
    assert c.g_minus.m == c.g_plus.m == 3


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
