import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from process_resilience.graphs import (
    GraphFormatError,
    ball,
    build_graph,
    connected_components,
    format_graph_text,
    giant_component,
    induced_subgraph,
    is_k_connected,
    k_core,
    parse_graph_text,
)
from process_resilience.process import sample_gnm, pair_count

from conftest import complete, cycle, path, star
from oracles import is_k_connected_oracle, peel_k_core_random_order


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
            assert is_k_connected(g, k, exhaustive=True) == is_k_connected_oracle(g, k)


@given(st.integers(0, 2 ** 31), st.integers(6, 10))
@settings(max_examples=80, deadline=None)
def test_k_connectivity_matches_oracle_random(seed, n):
    m = min(pair_count(n), n + seed % 7)
    g = sample_gnm(n, m, seed)
    for k in (2, 3, 4):
        assert is_k_connected(g, k) == is_k_connected_oracle(g, k), (g.edges, k)


@given(st.integers(0, 2 ** 31), st.integers(7, 10))
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
    pivot 0 on side A and the others on side B.
    """
    rng = random.Random(seed)
    others = list(range(k, n))
    rng.shuffle(others)
    if layout == "avoids":
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
    return build_graph(n, edges), sep


@pytest.mark.parametrize("layout", ["avoids", "contains", "splits"])
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
@settings(max_examples=60, deadline=None)
def test_k_connectivity_matches_oracle_dense_larger(seed, n):
    m = min(pair_count(n), 2 * n + seed % (3 * n))
    g = sample_gnm(n, m, seed)
    for k in (3, 4):
        assert is_k_connected(g, k) == is_k_connected_oracle(g, k), (g.edges, k)


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
