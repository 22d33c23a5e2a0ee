import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from process_resilience.graphs import (
    GraphFormatError,
    _SplitNetwork,
    _graph_from_arrays,
    ball,
    build_graph,
    connected_components,
    format_graph_text,
    giant_component,
    induced_subgraph,
    is_k_connected,
    k_core,
    neighbours_in,
    parse_graph_text,
)
from process_resilience.process import (graph_at, pair_count, sample_gnm,
                                        sample_process)
from process_resilience.resilience import crossing_degrees

from conftest import complete, cycle, path, star
from oracles import (atyp_neighbour_counts, crossing_counts, graph_from_pairs,
                     induced_subgraph_by_edges, is_k_connected_oracle,
                     peel_k_core_random_order, split_network_flow)


# -- construction ----------------------------------------------------------

def test_build_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.degrees == (1, 2, 1)
    assert g.edges == ((0, 1), (1, 2))


def test_build_collapses_duplicates():
    g = build_graph(2, [(0, 1), (1, 0)])
    assert g.edges == ((0, 1),)


def test_build_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        build_graph(4, [(0, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        build_graph(3, [(0, 3)])


def test_adjacency_symmetric_and_sorted():
    g = build_graph(5, [(3, 1), (0, 3), (4, 0), (2, 4)])
    for u in range(g.n):
        assert list(g.adj[u]) == sorted(g.adj[u])
        for v in g.adj[u]:
            assert u in g.adj[v]
    assert sum(g.degrees) == 2 * g.m


def _assert_same_graph(g, ref):
    assert (g.n, g.edges, g.adj, g.labels) == (ref.n, ref.edges, ref.adj, ref.labels)
    eu, ev = g._ends
    assert list(zip(eu.tolist(), ev.tolist())) == list(g.edges)
    assert eu.dtype == ev.dtype == np.int64
    assert not (eu.flags.writeable or ev.flags.writeable)


@st.composite
def pair_lists(draw, max_n=12):
    """n, then pairs with repeats and both orientations (isolated vertices
    and the empty list included)."""
    n = draw(st.integers(0, max_n))
    if n < 2:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    return n, draw(st.lists(pair, max_size=3 * n))


@given(pair_lists())
@settings(max_examples=300, deadline=None)
def test_build_graph_matches_tuple_reference(case):
    n, pairs = case
    distinct = {(u, v) if u < v else (v, u) for u, v in pairs}
    _assert_same_graph(build_graph(n, pairs), graph_from_pairs(n, distinct))


@given(pair_lists(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_array_constructor_matches_tuple_reference(case, rnd):
    n, pairs = case
    # distinct pairs in a random order, each in a random orientation
    distinct = sorted({(u, v) if u < v else (v, u) for u, v in pairs})
    rnd.shuffle(distinct)
    oriented = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in distinct]
    us = [u for u, _ in oriented]
    vs = [v for _, v in oriented]
    labels = tuple(rnd.sample(range(100), n))
    _assert_same_graph(_graph_from_arrays(n, us, vs, labels),
                       graph_from_pairs(n, oriented, labels))


def test_array_constructor_small_extremes():
    for n in (0, 1, 2):
        _assert_same_graph(_graph_from_arrays(n, [], []), graph_from_pairs(n, []))
    _assert_same_graph(_graph_from_arrays(2, [1], [0]), graph_from_pairs(2, [(0, 1)]))
    g = _graph_from_arrays(5, [4], [3])
    assert g.adj == ((), (), (), (4,), (3,))


def _relabelled_giants():
    """(g, vertices, sub): giants of sparse G(n, m) and their 2-cores, with
    the vertices of g they keep. Their labels point into a larger graph,
    and many isolated vertices are cut away."""
    for n, m, seed in ((60, 50, 1), (300, 320, 2), (1000, 1100, 3)):
        g = sample_gnm(n, m, seed)
        giant = giant_component(g)
        yield g, connected_components(g)[0], giant
        yield giant, peel_k_core_random_order(giant, 2, range(giant.n)), k_core(giant, 2)


def test_induced_subgraph_matches_edge_relabelling():
    rng = random.Random(7)
    for g, vertices, sub in _relabelled_giants():
        _assert_same_graph(sub, induced_subgraph_by_edges(g, vertices))
        for size in (0, 1, g.n // 3, g.n):
            keep = rng.sample(range(g.n), size)
            _assert_same_graph(induced_subgraph(g, keep),
                               induced_subgraph_by_edges(g, keep))


def test_induced_subgraph_rejects_foreign_vertices():
    g = cycle(4)
    for bad in ([4], [-1, 0]):
        with pytest.raises(ValueError, match="vertices"):
            induced_subgraph(g, bad)


def test_crossing_degrees_match_recount_on_relabelled_giants():
    rng = random.Random(11)
    for _, _, g in _relabelled_giants():
        for _ in range(5):
            side = [rng.choice((-1, 0, 1)) for _ in range(g.n)]
            counts = crossing_counts(
                g, frozenset(v for v in range(g.n) if side[v] == 0),
                frozenset(v for v in range(g.n) if side[v] == 1))
            assert crossing_degrees(g, side) == [counts[v] for v in range(g.n)]


@given(pair_lists(max_n=9), st.data())
@settings(max_examples=300, deadline=None)
def test_neighbours_in_matches_recount(case, data):
    n, pairs = case
    g = build_graph(n, pairs)
    members = data.draw(st.one_of(st.just(frozenset(range(n))),
                                  st.frozensets(st.integers(0, max(n - 1, 0)),
                                                max_size=n)))
    assert neighbours_in(g, members) == atyp_neighbour_counts(g, members)


def test_neighbours_in_extremes():
    graphs = (build_graph(0, []), build_graph(1, []), build_graph(2, []),
              build_graph(2, [(0, 1)]), build_graph(6, [(1, 3), (3, 4)]), star(5))
    for g in graphs:
        for members in (frozenset(), frozenset(range(g.n)),
                        frozenset(range(0, g.n, 2))):
            want = atyp_neighbour_counts(g, members)
            assert neighbours_in(g, members) == want
            assert neighbours_in(g, sorted(members)) == want
            assert neighbours_in(g, np.array(sorted(members), dtype=np.int64)) == want
    assert neighbours_in(star(5), {0}) == [0, 1, 1, 1, 1]


# -- text format -----------------------------------------------------------

def test_text_round_trip_bit_exact():
    g = build_graph(5, [(0, 1), (0, 4), (2, 3)])
    text = format_graph_text(g)
    assert text == "5 3\n0 1\n0 4\n2 3\n"
    assert parse_graph_text(text) == g
    assert format_graph_text(parse_graph_text(text)) == text


def test_text_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph_text("3 2\n0 1\n1 1\n")
    assert exc.value.line == 3
    with pytest.raises(GraphFormatError) as exc:
        parse_graph_text("nonsense\n")
    assert exc.value.line == 1
    with pytest.raises(GraphFormatError):
        parse_graph_text("3 1\n0 1\n0 1\n")  # count mismatch


# -- components / giant ----------------------------------------------------

def test_components_cycle():
    assert connected_components(cycle(5)) == [frozenset(range(5))]


def test_components_empty_graph():
    comps = connected_components(build_graph(4, []))
    assert comps == [frozenset({0}), frozenset({1}), frozenset({2}), frozenset({3})]


def test_components_two_triangles_ordering():
    g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    comps = connected_components(g)
    assert len(comps) == 2
    assert comps[0] == frozenset({0, 1, 2})  # tie broken by smallest vertex


def test_giant_triangle_plus_isolated():
    g = build_graph(4, [(0, 1), (1, 2), (0, 2)])
    giant = giant_component(g)
    assert giant.n == 3 and giant.m == 3
    assert giant.labels == (0, 1, 2)


def test_giant_tie_break_contains_vertex_zero():
    g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert giant_component(g).labels == (0, 1, 2)


def test_giant_of_connected_graph_is_identity():
    g = cycle(5)
    giant = giant_component(g)
    assert giant.edges == g.edges
    assert giant.labels == tuple(range(5))


def test_giant_requires_an_edge():
    with pytest.raises(ValueError, match="no giant"):
        giant_component(build_graph(3, []))


def test_induced_subgraph_composes_labels():
    g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    sub = induced_subgraph(g, {3, 4, 5})
    sub2 = induced_subgraph(sub, {0, 2})
    assert sub.labels == (3, 4, 5)
    assert sub2.labels == (3, 5)


# -- k-core ----------------------------------------------------------------

def test_kcore_tree_peels_to_nothing():
    assert k_core(path(7), 2).n == 0


def test_kcore_cycle_is_itself():
    core = k_core(cycle(6), 2)
    assert core.n == 6 and core.m == 6


def test_kcore_k5_plus_pendant():
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)] + [(0, 5)]
    g = build_graph(6, edges)
    core = k_core(g, 3)
    survivors = peel_k_core_random_order(g, 3, list(range(6)))
    assert set(core.labels) == survivors == {0, 1, 2, 3, 4}
    assert core.m == 10


def test_kcore_requires_k_at_least_two():
    with pytest.raises(ValueError):
        k_core(cycle(4), 1)


@given(st.integers(0, 2 ** 31), st.integers(5, 9), st.integers(2, 3))
@settings(max_examples=60, deadline=None)
def test_kcore_independent_of_peel_order(seed, n, k):
    g = sample_gnm(n, min(2 * n, pair_count(n)), seed)
    core = k_core(g, k)
    survivors = set(core.labels)
    assert all(core.degree(v) >= k for v in range(core.n))
    for order_seed in (1, 2, 3):
        order = sorted(range(n), key=lambda v: (v * 2654435761 + order_seed) % 97)
        assert peel_k_core_random_order(g, k, order) == survivors


# -- k-connectivity --------------------------------------------------------

def test_k4_is_3_connected():
    assert is_k_connected(complete(4), 3)


def test_p3_not_2_connected():
    assert not is_k_connected(path(3), 2)


def test_c5_connectivity_matches_oracle():
    c5 = cycle(5)
    assert is_k_connected(c5, 2) is is_k_connected_oracle(c5, 2) is True
    assert is_k_connected(c5, 3) is is_k_connected_oracle(c5, 3) is False


def test_small_graphs_not_k_connected():
    assert not is_k_connected(complete(3), 3)  # n < k+1
    assert not is_k_connected(build_graph(1, []), 1)


def test_k_connectivity_monotone_in_k():
    for g in (complete(5), cycle(6), star(5)):
        flags = [is_k_connected(g, k) for k in range(1, g.n)]
        assert all(a or not b for a, b in zip(flags, flags[1:]))


def test_one_connected_iff_connected():
    for g in (cycle(4), path(5), build_graph(3, []), star(6)):
        expected = len(connected_components(g)) == 1 and g.n >= 2
        assert is_k_connected(g, 1) == expected


def exhaustive_all_graphs(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_k_connectivity_matches_oracle_exhaustively(n):
    for g in exhaustive_all_graphs(n):
        for k in range(1, n):
            assert is_k_connected(g, k) == is_k_connected_oracle(g, k), (g.edges, k)


@given(st.integers(0, 2 ** 31), st.integers(6, 10))
@example(662, 6)  # k = 3 goes wrong if a settled vertex can be settled again
@settings(max_examples=80, deadline=None)
def test_k_connectivity_matches_oracle_random(seed, n):
    m = min(pair_count(n), n + seed % 7)
    g = sample_gnm(n, m, seed)
    for k in (2, 3, 4):
        assert is_k_connected(g, k) == is_k_connected_oracle(g, k), (g.edges, k)


@given(st.integers(0, 2 ** 31), st.integers(7, 10))
@example(397, 9)  # k = 3 goes wrong if a settled vertex can be settled again
@settings(max_examples=60, deadline=None)
def test_k_connectivity_matches_oracle_dense(seed, n):
    # dense graphs keep the min degree high enough to exercise the
    # disjoint-paths test for k >= 3
    m = min(pair_count(n), 2 * n + seed % (2 * n))
    g = sample_gnm(n, m, seed)
    for k in (3, 4, 5):
        assert is_k_connected(g, k) == is_k_connected_oracle(g, k), (g.edges, k)


def test_glued_cliques_have_low_connectivity():
    # two K_4's sharing one vertex: min degree 3 but a single cut vertex
    edges = [(u, v) for block in ([0, 1, 2, 3], [0, 4, 5, 6])
             for i, u in enumerate(block) for v in block[i + 1:]]
    g = build_graph(7, edges)
    assert g.min_degree() == 3
    assert not is_k_connected(g, 2)
    assert not is_k_connected(g, 3)
    # two K_5's sharing an edge: exactly 2-connected, not 3-connected
    edges = [(u, v) for block in ([0, 1, 2, 3, 4], [0, 1, 5, 6, 7])
             for i, u in enumerate(block) for v in block[i + 1:]]
    g = build_graph(8, edges)
    assert is_k_connected(g, 2)
    assert not is_k_connected(g, 3) and not is_k_connected(g, 4)
    for k in (2, 3, 4):
        assert is_k_connected(g, k) == is_k_connected_oracle(g, k)


def hypercube(d):
    n = 1 << d
    return build_graph(n, [(v, v ^ (1 << i)) for v in range(n) for i in range(d)
                           if v < v ^ (1 << i)])


def circulant(n, offsets):
    return build_graph(n, {tuple(sorted((v, (v + o) % n)))
                           for v in range(n) for o in offsets})


def planted_separator_graph(n, k, layout, seed):
    """Connected graph of min degree >= k in which k-1 planted vertices
    separate side A from side B; each side is C(1, 2) on its vertices plus
    random chords, and each separator vertex has k neighbours on each side.

    ``layout`` places the separator relative to the pivots {0..k-1} of
    Even's test: "avoids" them, "contains" pivot 0, or "splits" them, with
    pivot 0 on side A and the others on side B. "hub" avoids them too and
    joins one side-B vertex to every separator vertex, so that vertex has
    k-1 settled neighbours once the separator has passed its checks: one
    short of the fan lemma's k.
    """
    rng = random.Random(seed)
    others = list(range(k, n))
    rng.shuffle(others)
    if layout in ("avoids", "hub"):
        sep, pivots_a = others[:k - 1], list(range(k))
    elif layout == "contains":
        sep, pivots_a = [0] + others[:k - 2], list(range(1, k))
    else:
        sep, pivots_a = others[:k - 1], [0]
    rest = [v for v in others if v not in sep]
    side_a = pivots_a + rest[:(n - k + 1) // 2 - len(pivots_a)]
    side_b = [v for v in range(n) if v not in sep and v not in side_a]
    edges = set()
    for side in (side_a, side_b):
        rng.shuffle(side)
        for i, v in enumerate(side):
            for o in (1, 2):
                edges.add(tuple(sorted((v, side[(i + o) % len(side)]))))
        for i, u in enumerate(side):
            for v in side[i + 1:]:
                if rng.random() < 0.15:
                    edges.add(tuple(sorted((u, v))))
    for s in sep:
        for side in (side_a, side_b):
            for v in rng.sample(side, k):
                edges.add(tuple(sorted((s, v))))
    if layout == "hub":
        edges.update(tuple(sorted((s, side_b[0]))) for s in sep)
    return build_graph(n, edges), sep


@pytest.mark.parametrize("layout", ["avoids", "contains", "splits", "hub"])
@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("n", [20, 29, 40])
def test_k_connectivity_finds_planted_separator(n, k, layout):
    g, sep = planted_separator_graph(n, k, layout, seed=1000 * n + 10 * k)
    assert len(sep) == k - 1
    assert g.min_degree() >= k and is_k_connected(g, 1)
    assert is_k_connected(g, k) is is_k_connected_oracle(g, k) is False
    assert is_k_connected(g, k - 1) is is_k_connected_oracle(g, k - 1) is True


@pytest.mark.parametrize("g, k", [
    (hypercube(3), 3), (hypercube(4), 4), (circulant(20, (1, 2)), 4),
    (circulant(33, (1, 2)), 4),
])
def test_k_connectivity_controls(g, k):
    assert is_k_connected(g, k) is is_k_connected_oracle(g, k) is True
    assert is_k_connected(g, k + 1) is is_k_connected_oracle(g, k + 1) is False


@given(st.integers(0, 2 ** 31), st.integers(11, 16))
@example(1163, 11)  # k = 4 goes wrong if a settled vertex can be settled again
@settings(max_examples=60, deadline=None)
def test_k_connectivity_matches_oracle_dense_larger(seed, n):
    m = min(pair_count(n), 2 * n + seed % (3 * n))
    g = sample_gnm(n, m, seed)
    for k in (3, 4):
        assert is_k_connected(g, k) == is_k_connected_oracle(g, k), (g.edges, k)


@pytest.fixture
def flow_checks(monkeypatch):
    """The argument tuples of every ``paths_at_least`` call in the test."""
    calls = []
    original = _SplitNetwork.paths_at_least

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(_SplitNetwork, "paths_at_least", counted)
    return calls


def test_k_connectivity_matches_oracle_on_random_cores(flow_checks):
    # k-cores of G(n, m) with n = 12-24 are where the fan lemma settles
    # vertices without a flow check; the verdict must not change
    skipped = 0
    for seed in range(40):
        n = 12 + seed % 13
        g = sample_gnm(n, (2 + seed % 3) * n, seed)
        for k in (3, 4):
            core = k_core(g, k)
            flow_checks.clear()
            verdict = is_k_connected(core, k)
            assert verdict == is_k_connected_oracle(core, k), (core.edges, k)
            if verdict:
                skipped += math.comb(k, 2) + core.n - k - len(flow_checks)
    assert skipped > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fan_lemma_skips_most_flow_checks(flow_checks, seed):
    # deterministic guard on the work done: without the fan lemma the
    # 3-core of a 1024-vertex process graph runs one check per vertex
    n = 1024
    core = k_core(graph_at(sample_process(n, seed),
                           round(n * math.log(n) / 2)), 3)
    assert is_k_connected(core, 3)
    assert len(flow_checks) < n / 8


# -- split-vertex flow network ------------------------------------------------

_SMALL_NETWORK_GRAPHS = [
    build_graph(1, []), build_graph(2, []), build_graph(2, [(0, 1)]),
    build_graph(4, [(0, 1), (2, 3)]),                 # disconnected
    build_graph(4, [(0, 1), (0, 2), (1, 2)]),         # isolated vertex 3
    complete(4), cycle(5),
]


@pytest.mark.parametrize("g", _SMALL_NETWORK_GRAPHS + [hypercube(3)])
def test_split_network_arc_layout(g):
    net = _SplitNetwork(g, range(min(3, g.n)))
    assert len(net.out) == 2 * g.n + 1
    assert len(net.head) == 2 * (g.n + 2 * g.m + min(3, g.n))
    for v in range(g.n):
        assert 2 * v in net.out[2 * v] and net.head[2 * v] == 2 * v + 1
    for x, arcs in enumerate(net.out):
        for e in arcs:
            assert net.head[e ^ 1] == x  # e ^ 1 runs back from head[e] to x
    assert net.base == [1 - (e & 1) for e in range(len(net.head))]
    assert net.cap == net.base


def test_undo_log_restores_capacities():
    g = hypercube(3)  # 3-connected, not 4-connected
    net = _SplitNetwork(g, range(3))
    assert net.paths_at_least(2 * 0 + 1, 2 * 7, 3, (0, 7))
    assert net.cap == net.base
    assert not net.paths_at_least(2 * 0 + 1, 2 * 7, 4, (0, 7))
    assert net.cap == net.base
    assert net.paths_at_least(2 * g.n, 2 * 5, 3, (5,))
    assert net.cap == net.base
    assert not net.paths_at_least(2 * g.n, 2 * 5, 4, (5,))
    assert net.cap == net.base


def _check_against_flow_oracle(net, g, sources, source, sink, uncapped, k):
    flow = split_network_flow(g, sources, source, sink,
                              {v: k + 1 for v in uncapped})
    assert net.paths_at_least(source, sink, k, uncapped) is (flow >= k), (
        g.edges, sources, source, sink, uncapped, k)
    assert net.cap == net.base


@pytest.mark.parametrize("g", _SMALL_NETWORK_GRAPHS)
def test_paths_at_least_matches_flow_oracle_on_small_graphs(g):
    sources = range(min(2, g.n))
    net = _SplitNetwork(g, sources)
    nodes = range(len(net.out))
    for source, sink in ((s, t) for s in nodes for t in nodes if s != t):
        for size in range(3):
            for uncapped in combinations(range(g.n), size):
                for k in range(1, 6):
                    _check_against_flow_oracle(net, g, sources, source, sink,
                                               uncapped, k)


@st.composite
def flow_queries(draw):
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8]))
    rnd = random.Random(draw(st.integers(0, 2 ** 31)))
    g = build_graph(n, [e for e in pairs if rnd.random() < density])
    sources = sorted(rnd.sample(range(n), draw(st.integers(0, n))))
    queries = []
    for _ in range(draw(st.integers(1, 6))):
        source, sink = rnd.sample(range(2 * n + 1), 2)
        uncapped = tuple(rnd.sample(range(n), rnd.randint(0, min(2, n))))
        queries.append((source, sink, uncapped, rnd.randint(1, 5)))
    return g, sources, queries


@given(flow_queries())
@settings(max_examples=200, deadline=None)
def test_paths_at_least_matches_flow_oracle(case):
    # several queries on one network also check that no state leaks
    g, sources, queries = case
    net = _SplitNetwork(g, sources)
    for source, sink, uncapped, k in queries:
        _check_against_flow_oracle(net, g, sources, source, sink, uncapped, k)

# -- balls -----------------------------------------------------------------

def test_ball_on_cycle():
    c6 = cycle(6)
    assert ball(c6, 0, 1) == {1, 5}
    assert ball(c6, 0, 3) == {1, 2, 3, 4, 5}


def test_ball_star_center():
    assert ball(star(6), 0, 1) == set(range(1, 6))


def test_ball_never_contains_center_and_is_monotone():
    g = sample_gnm(12, 18, 5)
    for v in range(g.n):
        prev = frozenset()
        for radius in (1, 2, 3):
            b = ball(g, v, radius)
            assert v not in b
            assert prev <= b
            prev = b
