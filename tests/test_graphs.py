import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import process_resilience.graphs as graphs
from process_resilience.graphs import (
    GraphFormatError,
    _WAIT,
    _SplitNetwork,
    _clique,
    _graph_from_arrays,
    _graph_from_ranks,
    _induced,
    _is_edge,
    _k_connected,
    _pair_arrays,
    _row_walk,
    ball,
    build_graph,
    connected_components,
    format_graph_text,
    giant_component,
    incidence,
    induced_subgraph,
    is_k_connected,
    k_core,
    neighbours_in,
    parse_graph_text,
)
from process_resilience.process import (graph_at, hitting_time_k_connectivity,
                                        hitting_time_min_degree, pair_count,
                                        sample_gnm, sample_process)
from process_resilience.resilience import (BudgetRule, crossing_degrees,
                                           find_k_conn_attack)

from conftest import circulant, complete, cycle, hypercube, path, star
from oracles import (adjacency_sets, atyp_neighbour_counts, ball_by_bfs, cached_views,
                     components_by_pairs, crossing_counts, csr_rows,
                     degrees_by_pairs, graph_from_pairs, graph_from_ranks,
                     induced_subgraph_by_edges, is_k_connected_oracle,
                     peel_k_core_random_order, split_network_arcs,
                     split_network_flow)


# -- construction ----------------------------------------------------------

def test_build_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.degree_array.tolist() == [1, 2, 1]
    assert g.edges == ((0, 1), (1, 2))


def test_build_collapses_duplicates():
    g = build_graph(2, [(0, 1), (1, 0)])
    assert g.edges == ((0, 1),)


def test_build_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        build_graph(4, [(0, 0)])


def test_build_rejects_out_of_range():
    # 1.5 was once truncated to 1, and True read as 1
    for edge in [(0, 3), (-1, 0), (0, 1.5), (True, 2)]:
        with pytest.raises(ValueError, match=r"^vertex must be an integer in \[0, 2\], "):
            build_graph(3, [edge])


def test_adjacency_symmetric_and_sorted():
    g = build_graph(5, [(3, 1), (0, 3), (4, 0), (2, 4)])
    rows = csr_rows(g)
    for u in range(g.n):
        assert list(rows[u]) == sorted(rows[u])
        for v in rows[u]:
            assert u in rows[v]
    assert g.degree_array.sum() == 2 * g.m


def _assert_same_graph(g, ref):
    assert ((g.n, g.edges, csr_rows(g), g.labels)
            == (ref.n, ref.edges, csr_rows(ref), ref.labels))
    eu, ev = g._ends
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
    assert csr_rows(g) == [(), (), (), (4,), (3,)]


@st.composite
def rank_lists(draw, max_n=12):
    """n, then distinct pair ranks of n vertices in any order: none, some,
    or all N of them."""
    n = draw(st.integers(0, max_n))
    N = pair_count(n)
    if N == 0:
        return n, []
    ranks = st.lists(st.integers(0, N - 1), unique=True, max_size=N)
    return n, draw(ranks | st.permutations(range(N)))


@given(rank_lists(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
@example((0, []), random.Random(0))
@example((1, []), random.Random(0))
@example((2, []), random.Random(0))
@example((2, [0]), random.Random(0))
@example((7, []), random.Random(0))                    # no edges
@example((7, list(range(20, -1, -1))), random.Random(0))  # m = N
# empty rows: ranks only in row 0, only in the last row (n - 2; row n - 1
# is always empty), and rows 0 and 4 with rows 1-3 empty between them
@example((7, [5, 0, 3]), random.Random(0))
@example((7, [20]), random.Random(0))
@example((7, [1, 18, 19, 2]), random.Random(0))
@example((3, [2]), random.Random(0))                   # rows 0 and 2 empty
def test_rank_constructor_matches_the_row_walk(case, rnd):
    n, ranks = case
    labels = tuple(rnd.sample(range(100), n))
    _assert_same_graph(_graph_from_ranks(n, ranks, labels),
                       graph_from_ranks(n, ranks, labels))
    _assert_same_graph(_graph_from_ranks(n, np.array(ranks, dtype=np.int64)),
                       graph_from_ranks(n, ranks))


@pytest.mark.parametrize("n, key", [(46340, np.int32), (46341, np.int64)])
def test_rank_constructor_on_either_side_of_the_32_bit_keys(n, key):
    # n*n fits in int32 up to n = 46340; ranks from the first two rows and
    # the last two, where the keys owner*n + neighbour are the largest
    N = pair_count(n)
    assert graphs._rows(n)[0].dtype == key
    ranks = [N - 1, 0, n - 2, N - 3, n - 1, N - 2, 1]
    _assert_same_graph(_graph_from_ranks(n, ranks), graph_from_ranks(n, ranks))


@given(pair_lists(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
@example((4, [(0, 1), (2, 3), (3, 1)]), random.Random(0))
def test_equal_graphs_compare_and_hash_equal_however_built(case, rnd):
    n, pairs = case
    distinct = sorted({(u, v) if u < v else (v, u) for u, v in pairs})
    rnd.shuffle(distinct)
    flipped = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in distinct]
    text = f"{n} {len(distinct)}\n" + "".join(f"{u} {v}\n" for u, v in sorted(distinct))
    # the same graph as the subgraph of a larger one induced on 0..n-1
    bigger = build_graph(n + 2, distinct + [(n, n + 1)] + [(v, n) for v in range(n)])
    graphs = [build_graph(n, pairs), parse_graph_text(text),
              _graph_from_arrays(n, [u for u, _ in flipped], [v for _, v in flipped]),
              induced_subgraph(bigger, range(n))]
    for g in graphs:
        assert g == graphs[0] and hash(g) == hash(graphs[0])
        assert g.edges == tuple(sorted(distinct)) and g.m == len(distinct)
    # one edge less, one more, or one swapped for another is another graph
    missing = [p for p in combinations(range(n), 2) if p not in set(distinct)][:1]
    changed = [distinct + missing, distinct[1:] + missing]
    for g in [build_graph(n, edges) for edges in changed if edges != distinct]:
        assert g != graphs[0]
    assert build_graph(n + 1, distinct) != graphs[0]


def test_graph_equality_defers_to_other_types():
    g = build_graph(2, [(0, 1)])
    assert g.__eq__(((0, 1),)) is NotImplemented
    assert g != "2 1\n0 1\n"


# -- CSR views and array kernels against pair-loop references --------------

def _assert_rows_then_graph(g, ref):
    """g's CSR rows and degrees match ref's rows, reading g caches no view
    but ``degree_array``, and then the whole graph matches."""
    rows = csr_rows(ref)
    assert csr_rows(g) == rows
    assert g.degree_array.tolist() == list(map(len, rows))
    assert g.min_degree() == min(map(len, rows), default=0)
    for a in (g.indptr, g.indices, g.degree_array):
        assert a.dtype == np.int64 and not a.flags.writeable
    assert cached_views(g) <= {"degree_array"}
    _assert_same_graph(g, ref)


# n = 0, 1, 2, no edges, isolated vertices, two components of equal size;
# then cases of the component labelling, whose first hook joins each vertex
# to its least neighbour, the head of its CSR row:
# - a path in order: the hooks form one chain that the pointer jumps
#   must collapse;
# - 0-7-6-...-1, numbered in decreasing order from 7: the chain from 6
#   ends at 1, whose only neighbour is larger, and an edge round hooks it;
# - isolated vertices at 0 and n - 1;
# - 2's only neighbour 5 is larger, yet 1 is the least of its component;
# then the exit once every label is 0 (n = 1 and the edgeless graphs above
# end at the first test):
# - a star centred at 0, which the head hook alone finishes;
# - 0 isolated while the rest is connected: a second root is left, so
#   no exit;
# - the path 0-2-1: after the hook, 1 keeps its own label until an edge
#   round, so an exit at a largest label of 1 returns [0, 1, 0]
CSR_EXAMPLES = ((0, []), (1, []), (2, []), (2, [(1, 0)]), (5, []), (5, [(3, 1)]),
                (6, [(0, 5), (5, 3), (2, 1), (4, 2)]),
                (8, [(v, v + 1) for v in range(7)]),
                (8, [(0, 7)] + [(v, v - 1) for v in range(7, 1, -1)]),
                (6, [(1, 2), (3, 2), (4, 3)]),
                (6, [(2, 5), (1, 5), (3, 4)]),
                (6, [(0, v) for v in range(1, 6)]),
                (5, [(1, 2), (2, 3), (3, 4)]),
                (3, [(0, 2), (2, 1)]))


def _with_examples(*extra):
    def wrap(test):
        for case in CSR_EXAMPLES:
            test = example(case, *extra)(test)
        return test
    return wrap


@given(pair_lists())
@settings(max_examples=300, deadline=None)
@_with_examples()
def test_csr_rows_degrees_and_components_match_pair_loops(case):
    n, pairs = case
    distinct = {(u, v) if u < v else (v, u) for u, v in pairs}
    g = build_graph(n, pairs)
    assert tuple(g.degree_array.tolist()) == degrees_by_pairs(n, distinct)
    assert connected_components(g) == components_by_pairs(n, distinct)
    _assert_rows_then_graph(g, graph_from_pairs(n, distinct))


@given(pair_lists(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
@_with_examples(random.Random(0))
def test_induced_subgraphs_and_cores_match_pair_loops(case, rnd):
    n, pairs = case
    distinct = {(u, v) if u < v else (v, u) for u, v in pairs}
    g, ref = build_graph(n, pairs), graph_from_pairs(n, distinct)
    # a subgraph of a subgraph: its labels compose to g's vertices
    keep = rnd.sample(range(n), rnd.randint(0, n))
    sub, sub_ref = induced_subgraph(g, keep), induced_subgraph_by_edges(ref, keep)
    _assert_rows_then_graph(sub, sub_ref)
    keep = rnd.sample(range(sub.n), rnd.randint(0, sub.n))
    _assert_rows_then_graph(induced_subgraph(sub, keep),
                            induced_subgraph_by_edges(sub_ref, keep))
    if distinct:
        _assert_rows_then_graph(giant_component(g), induced_subgraph_by_edges(
            ref, components_by_pairs(n, distinct)[0]))
    for k in (2, 3):
        survivors = peel_k_core_random_order(ref, k, range(n))
        _assert_rows_then_graph(k_core(g, k), induced_subgraph_by_edges(ref, survivors))


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
            assert crossing_degrees(g, side).tolist() == [counts[v] for v in range(g.n)]


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
            mask = np.zeros(g.n, dtype=bool)
            mask[sorted(members)] = True
            assert neighbours_in(g, mask) == want
    assert neighbours_in(star(5), {0}) == [0, 1, 1, 1, 1]


@given(st.integers(0, 9),
       st.one_of(st.integers(-2 ** 70, 2 ** 70),
                 st.integers(0, 12).map(lambda k: np.ones(k, dtype=bool))))
@example(n=4, bad=-1)                         # would alias vertex n - 1
@example(n=4, bad=4)                          # vertex n
@example(n=4, bad=np.ones(3, dtype=bool))     # a mask of length n - 1
@example(n=4, bad=np.ones(5, dtype=bool))     # a mask of length n + 1
@settings(max_examples=100, deadline=None)
def test_neighbours_in_rejects_vertices_outside_the_graph(n, bad):
    is_mask = isinstance(bad, np.ndarray)
    assume(len(bad) != n if is_mask else not 0 <= bad < n)
    with pytest.raises(ValueError, match="mask must have shape" if is_mask
                       else r"vertices must be integers in \[0, "):
        neighbours_in(path(n), bad if is_mask else [*range(n), bad])


@st.composite
def incidence_cases(draw):
    """n, then pairs over 0..n-1 with repeats, both orientations and loops."""
    n = draw(st.integers(0, 12))
    if n == 0:
        return n, []
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))


@given(incidence_cases())
@example((0, []))                                   # no vertices
@example((5, []))                                   # no pairs
@example((6, [(4, 1)]))                             # isolated vertices
@example((3, [(0, 1), (1, 0), (0, 1), (2, 2)]))     # repeats and a loop
@settings(max_examples=300, deadline=None)
def test_incidence_matches_pair_loop(case):
    n, pairs = case
    counts = incidence(n, *_pair_arrays(pairs))
    assert counts.tolist() == list(degrees_by_pairs(n, pairs))


@pytest.mark.parametrize("g", [cycle(4), complete(5), path(6), build_graph(3, [])])
def test_edge_keys_match_adjacency_sets(g):
    # every pair lo < hi in range, then for each edge (u, v) the pair
    # (u - 1, v + n) outside the range, whose key u * n + v is the edge's
    adj = adjacency_sets(g)
    pairs = list(combinations(range(g.n), 2)) + [(u - 1, v + g.n) for u, v in g.edges]
    lo, hi = np.array(pairs, dtype=np.int64).T
    want = [0 <= u and v < g.n and v in adj[u] for u, v in pairs]
    assert _is_edge(g, lo, hi).tolist() == want


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


def _giants_and_inputs():
    """(g, connected): connected, disconnected and labelled inputs, the
    giant of a giant among them."""
    sparse = sample_gnm(300, 320, 2)
    giant = giant_component(sparse)
    yield cycle(5), True
    yield sample_gnm(300, 2000, 1), True
    yield sparse, False
    yield giant, True
    yield k_core(giant, 2), True
    yield induced_subgraph(cycle(9), [0, 1, 2, 3, 4]), True
    yield induced_subgraph(cycle(9), [5, 6, 8, 0, 2, 3]), False


@pytest.mark.parametrize("g, connected", list(_giants_and_inputs()))
def test_giant_equals_the_induced_copy(g, connected):
    # a connected g's giant shares g's arrays; any giant equals the copy
    # _induced makes of its component, labels included
    inside = np.zeros(g.n, dtype=bool)
    inside[list(connected_components(g)[0])] = True
    assert inside.all() == connected
    giant, ref = giant_component(g), _induced(g, inside)
    assert giant.n == ref.n and giant.labels == ref.labels
    assert type(giant.labels) is tuple
    for a, b in ((giant.indptr, ref.indptr), (giant.indices, ref.indices),
                 *zip(giant._ends, ref._ends)):
        assert a.dtype == np.int64 and not a.flags.writeable
        assert np.array_equal(a, b)
    shares = [np.shares_memory(a, b) for a, b in (
        (giant.indptr, g.indptr), (giant.indices, g.indices), *zip(giant._ends, g._ends))]
    assert shares == [connected] * 4


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


_K_TAKERS = {
    "k_core": lambda k: k_core(complete(5), k),
    "is_k_connected": lambda k: is_k_connected(complete(5), k),
    "hitting_time_min_degree": lambda k: hitting_time_min_degree(sample_process(5, 0), k),
    "hitting_time_k_connectivity":
        lambda k: hitting_time_k_connectivity(sample_process(5, 0), k),
    "BudgetRule": lambda k: BudgetRule(Fraction(1, 2), k),
    "find_k_conn_attack":
        lambda k: find_k_conn_attack(complete(5), BudgetRule(Fraction(1, 2)), k),
}


@pytest.mark.parametrize("bad", [2.5, 2.0, True, np.True_, "2", None])
@pytest.mark.parametrize("take", list(_K_TAKERS))
def test_k_must_be_an_integer(take, bad):
    # a float would be truncated or fail inside numpy, and True would pass as 1
    with pytest.raises(ValueError, match="k must be an integer"):
        _K_TAKERS[take](bad)
    _K_TAKERS[take](np.int64(2))


@given(st.integers(0, 2 ** 31), st.integers(5, 9), st.integers(2, 3))
@settings(max_examples=60, deadline=None)
def test_kcore_independent_of_peel_order(seed, n, k):
    g = sample_gnm(n, min(2 * n, pair_count(n)), seed)
    core = k_core(g, k)
    survivors = set(core.labels)
    assert all(len(nbrs) >= k for nbrs in adjacency_sets(core))
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


def planted_separator_graph(n, k, layout, seed):
    """Connected graph of min degree >= k in which k-1 planted vertices
    separate side A from side B; each side is C(1, 2) on its vertices plus
    random chords, and each separator vertex has k neighbours on each side,
    the pivots there among them.

    The pivots of Even's test are the k vertices first in degree order
    (descending, ties by index); here they are 0..k-1, raised to the top
    degree by edges that keep the separator. ``layout`` places the
    separator relative to them: "avoids" them, "contains" pivot 0, or
    "splits" them, with pivot 0 on side A and the others on side B. "hub"
    avoids them too and joins one side-B vertex to every separator vertex,
    so that vertex has k-1 settled neighbours once the separator is
    settled: one short of the fan lemma's k.
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
            pivots = [v for v in side if v < k]
            chosen = rng.sample([v for v in side if v >= k], k - len(pivots))
            edges.update(tuple(sorted((s, v))) for v in pivots + chosen)
    if layout == "hub":
        edges.update(tuple(sorted((s, side_b[0]))) for s in sep)
    # join the lowest pivot to its lowest-degree non-neighbour, pivots
    # first, on its side (both sides for a separator pivot) until no other
    # vertex has a higher degree
    deg = Counter(v for e in edges for v in e)
    while True:
        p = min(range(k), key=deg.__getitem__)
        if deg[p] >= max(deg[v] for v in range(k, n)):
            break
        mates = side_a if p in side_a else side_b if p in side_b else side_a + side_b
        v = min((v for v in mates if v != p and (min(p, v), max(p, v)) not in edges),
                key=lambda v: (v >= k, deg[v]))
        edges.add((min(p, v), max(p, v)))
        deg[p] += 1
        deg[v] += 1
    g = build_graph(n, edges)
    assert sorted(np.argsort(-g.degree_array, kind="stable")[:k].tolist()) == list(range(k))
    return g, sep


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


@pytest.fixture
def network_builds(monkeypatch):
    """The sources of every ``_SplitNetwork`` built in the test."""
    builds = []
    original = _SplitNetwork.__init__

    def counted(self, g, sources):
        builds.append(sources)
        original(self, g, sources)

    monkeypatch.setattr(_SplitNetwork, "__init__", counted)
    return builds


@pytest.mark.parametrize("n, seed", [(256, 0), (256, 1), (256, 2),
                                     (1024, 0), (1024, 1), (1024, 2)])
def test_fan_lemma_skips_most_flow_checks(flow_checks, network_builds, n, seed):
    # deterministic guard on the work done: without the fan lemmas the
    # 3-core of a process graph runs one check per vertex; with the
    # one-step fan lemma alone it runs 28-34 (n = 256) and 52-56
    # (n = 1024), with the two-step fan from the pivots 5-10 and 15-19,
    # and with a check the moment a vertex's fans fail 0-2 on 0-1 networks
    core = k_core(graph_at(sample_process(n, seed),
                           round(n * math.log(n) / 2)), 3)
    assert is_k_connected(core, 3)
    assert flow_checks == [] and network_builds == []


@pytest.mark.slow
def test_tau_3_connectivity_at_n_4096_needs_no_flow_check(flow_checks, network_builds):
    # the README figure; G at tau_3 is where a vertex's fans fail until
    # the walk has settled more, and once ran a super-source check
    trace = sample_process(4096, 5)
    assert hitting_time_min_degree(trace, 3) == hitting_time_k_connectivity(trace, 3) == 25273
    assert flow_checks == [] and network_builds == []


@pytest.fixture
def fan_tries(monkeypatch):
    """The verdict of every two- and three-step fan tried in the test."""
    verdicts = []
    original = graphs._fans

    def counted(*args):
        verdicts.append(original(*args))
        return verdicts[-1]

    monkeypatch.setattr(graphs, "_fans", counted)
    return verdicts


def two_cliques_on_a_2_separator(h):
    """Two K_h, on 2..h+1 and h+2..2h+1, and a 2-separator {0, 1} joined
    to all of them."""
    a, b = range(2, h + 2), range(h + 2, 2 * h + 2)
    return build_graph(2 * h + 2, [(u, v) for side in (a, b) for u, v in combinations(side, 2)]
                       + [(s, v) for s in (0, 1) for v in (*a, *b)])


@pytest.mark.parametrize("h", [8, 40])
def test_a_separator_ends_the_test_after_a_bounded_wait(flow_checks, fan_tries, h):
    # every fan from the second K_h fails, and the settled set stops
    # growing, so the vertices that wait retry nothing and the first check
    # ends the test
    g = two_cliques_on_a_2_separator(h)
    assert is_k_connected(g, 3) is False
    assert len(flow_checks) == 1 and fan_tries == [False] * min(h, _WAIT + 1)
    if h <= 8:
        assert is_k_connected_oracle(g, 3) is False


def test_a_failing_fan_on_a_dense_block_reads_at_most_2_k_n_entries(monkeypatch):
    # without the bound each failing fan from the second K_60 reads the
    # rows of its 60 unsettled neighbours twice, about 7300 entries
    g, k = two_cliques_on_a_2_separator(60), 3
    reads = []
    original = graphs._fans

    class CountedRows:
        def __init__(self, rows):
            self.rows, self.read = rows, 0

        def __getitem__(self, span):
            self.read += span.stop - span.start
            return self.rows[span]

    def counted(u, k, settled, at, rows):
        counted_rows = CountedRows(rows)
        verdict = original(u, k, settled, at, counted_rows)
        reads.append(counted_rows.read - (at[u + 1] - at[u]))
        return verdict

    monkeypatch.setattr(graphs, "_fans", counted)
    assert is_k_connected(g, k) is False
    assert len(reads) == _WAIT + 1 and 0 < max(reads) <= 2 * k * g.n


_K_CONNECTED_KEEP = {"all": lambda u, v: True,
                     "halves": lambda u, v: u % 2 == v % 2,
                     "bipartite": lambda u, v: u % 2 != v % 2}


def _process_graph_kept(trace, m, keep):
    """G_m of the trace, less the edges that ``keep`` drops: two halves,
    which disconnect g, or a bipartite graph, which has no triangle."""
    keep = _K_CONNECTED_KEEP[keep]
    return build_graph(trace.n, [e for e in graph_at(trace, m).edges if keep(*e)])


@given(st.integers(0, 2 ** 31), st.integers(4, 12), st.sampled_from([2, 3, 4]),
       st.integers(0, 100), st.integers(0, 100), st.sampled_from(list(_K_CONNECTED_KEEP)))
@example(1, 10, 2, 40, 80, "all")         # k = 2, the kcore default: seeded
@example(1, 10, 2, 35, 80, "all")         # with 7; 2-connected, then not
@example(0, 6, 3, 100, 0, "all")         # K_6: a clique start
@example(0, 10, 3, 90, 0, "bipartite")   # no triangle: the pivots start
@example(0, 10, 3, 55, 80, "all")        # seeded with 8 of the 10 vertices
@example(1, 10, 3, 45, 70, "all")        # seeded with 7; not 3-connected
@example(0, 8, 3, 100, 0, "halves")      # two disjoint K_4
@example(0, 4, 3, 100, 0, "all")         # n = k + 1: K_4
@example(0, 4, 3, 80, 0, "all")          # n = k + 1, an edge short
@settings(max_examples=80, deadline=None)
def test_k_connected_matches_oracle(seed, n, k, fill, seed_at, keep):
    # the seed, when there is one, is the k-connected k-core of an earlier
    # graph of the same process, a subgraph of g
    assume(n >= k + 1)
    trace = sample_process(n, seed)
    m = pair_count(n) * fill // 100
    g = _process_graph_kept(trace, m, keep)
    core = k_core(_process_graph_kept(trace, m * seed_at // 100, keep), k)
    linked = core.labels if core.n and is_k_connected_oracle(core, k) else ()
    assert _k_connected(g, k, linked) is is_k_connected_oracle(g, k)


def _seed_clique(g, k):
    order = np.argsort(-g.degree_array, kind="stable").tolist()
    return sorted(_clique(g, k, order, *_row_walk(g)))


def cubes_on_a_2_separator(attach, chord):
    """Two 3-cubes, A on 2..9 and B on 10..17 (cube vertex c at 2 + c and
    at 10 + c), joined only through the separator {0, 1}: separator vertex
    s meets the cube vertices ``attach[s]`` in both cubes, and ``chord``
    joins two vertices of A. The cubes are bipartite and 0 and 1 meet only
    cube vertices of even weight, so every triangle uses the chord."""
    edges = {(off + c, off + (c ^ 1 << i)) for off in (2, 10) for c in range(8)
             for i in range(3) if c < c ^ 1 << i}
    edges |= {(s, off + c) for s in (0, 1) for off in (2, 10) for c in attach[s]}
    edges.add(chord)
    return build_graph(18, edges)


@pytest.mark.parametrize("attach, chord, seed", [
    # the seed triangle wholly inside side A, away from both separator vertices
    (((3, 5), (3, 6)), (2, 8), [2, 4, 8]),
    # separator vertex 0 inside the seed triangle, its other two vertices in A
    (((0, 3, 5, 6), (5, 6)), (2, 5), [0, 2, 5]),
])
def test_k_connectivity_finds_2_separator_around_the_seed_triangle(attach, chord, seed):
    g = cubes_on_a_2_separator(attach, chord)
    assert g.min_degree() >= 3 and _seed_clique(g, 3) == seed
    assert is_k_connected(g, 3) is is_k_connected_oracle(g, 3) is False
    assert is_k_connected(g, 2) is is_k_connected_oracle(g, 2) is True


@pytest.mark.parametrize("g, k", [(hypercube(3), 3), (hypercube(4), 4)])
def test_clique_free_graphs_fall_back_to_the_pivots(flow_checks, g, k):
    # no k-clique, so the pivots' pair checks run first
    assert _seed_clique(g, k) == []
    assert is_k_connected(g, k) is is_k_connected_oracle(g, k) is True
    pivots = np.argsort(-g.degree_array, kind="stable")[:k].tolist()
    assert [c[:2] for c in flow_checks[:math.comb(k, 2)]] == [
        (2 * a + 1, 2 * b) for a, b in combinations(pivots, 2)]


# graphs that are not 3-connected, which a settle rule that lets its paths
# meet, or a seed that is no clique, would read as 3-connected
_MEETING_PATH_TRAPS = {
    "three-step x is a neighbour of u": (11, [
        (0, 2), (0, 3), (0, 5), (1, 3), (1, 5), (1, 7), (2, 5), (2, 7), (3, 5),
        (3, 10), (4, 7), (4, 8), (4, 9), (5, 10), (6, 8), (6, 9), (6, 10),
        (8, 9), (8, 10)]),
    "three-step x on two paths": (12, [
        (0, 4), (0, 7), (0, 8), (1, 7), (1, 8), (1, 9), (2, 5), (2, 10),
        (2, 11), (3, 5), (3, 10), (3, 11), (4, 5), (4, 6), (4, 11), (5, 10),
        (5, 11), (6, 7), (6, 8), (7, 8), (8, 9), (9, 10), (10, 11)]),
    "seed triangle without its third edge": (6, [
        (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 5), (2, 3), (2, 5),
        (3, 4), (4, 5)]),
}


@pytest.mark.parametrize("trap", list(_MEETING_PATH_TRAPS))
def test_k_connectivity_paths_share_only_their_start(trap):
    n, edges = _MEETING_PATH_TRAPS[trap]
    g = build_graph(n, edges)
    assert g.min_degree() >= 3
    assert is_k_connected(g, 3) is is_k_connected_oracle(g, 3) is False


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [256, 1024])
def test_seeded_test_at_tau_3_needs_no_flow(flow_checks, network_builds, n, seed):
    # deterministic guard on the work done: seeded with the 3-connected
    # 3-core of G_m, the fan lemma alone settles G_tau_3
    trace = sample_process(n, seed)
    m = round(n * math.log(n) / 2)
    core = k_core(graph_at(trace, m), 3)
    tau = hitting_time_min_degree(trace, 3)
    assert tau >= m and is_k_connected(core, 3)
    flow_checks.clear()
    network_builds.clear()
    assert _k_connected(graph_at(trace, tau), 3, core.labels)
    assert flow_checks == [] and network_builds == []


@given(st.integers(0, 2 ** 31), st.integers(12, 40), st.sampled_from([2, 3, 4]),
       st.integers(0, 99))
@example(0, 12, 3, 0)
@example(5, 40, 4, 60)
@example(11, 29, 3, 99)
@example(3, 20, 2, 0)
@settings(max_examples=16, deadline=None)
def test_seeded_k_connectivity_matches_oracle(seed, n, k, start):
    trace = sample_process(n, seed)
    tau = hitting_time_min_degree(trace, k)
    # the first m from start% of tau_k on whose k-core is k-connected; it
    # exists, since G_m is its own k-core once it is k-connected
    m = tau * start // 100
    while not is_k_connected(core := k_core(graph_at(trace, m), k), k):
        m += 1
    assert is_k_connected_oracle(core, k)
    # k-connectivity is monotone along the process, so the oracle is false
    # up to one step and true from it on; bisect for that step
    lo, hi = m, tau + n + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if is_k_connected_oracle(graph_at(trace, mid), k):
            hi = mid
        else:
            lo = mid + 1
    for t in range(m, tau + n + 1):
        assert _k_connected(graph_at(trace, t), k, core.labels) is (t >= lo), (t, lo)


@pytest.mark.parametrize("layout", ["avoids", "contains", "splits", "hub"])
@pytest.mark.parametrize("k", [3, 4])
def test_seeded_k_connectivity_finds_separator_outside_seed(k, layout):
    # either side of a planted separator is k-connected, yet g is not
    g, sep = planted_separator_graph(29, k, layout, seed=7 * k)
    rest = induced_subgraph(g, set(range(g.n)) - set(sep))
    sides = [sorted(map(rest.labels.__getitem__, c)) for c in connected_components(rest)]
    assert len(sides) == 2
    for side in sides:
        assert is_k_connected_oracle(induced_subgraph(g, side), k)
        assert _k_connected(g, k, tuple(side)) is is_k_connected_oracle(g, k) is False


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


@pytest.mark.parametrize("g", _SMALL_NETWORK_GRAPHS + [hypercube(3)])
def test_split_network_matches_arc_by_arc_build(g):
    for size in range(min(3, g.n) + 1):
        for sources in combinations(range(g.n), size):
            net = _SplitNetwork(g, sources)
            assert (net.head, net.base, net.out) == split_network_arcs(g, sources)
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


@given(pair_lists(max_n=30), st.integers(1, 8))
@settings(max_examples=200, deadline=None)
@example((1, []), 1)                                           # n = 1
@example((5, [(0, 1), (1, 2), (2, 3)]), 2)                     # isolated vertex 4
@example((6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]), 8)     # past the diameter
@example((7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)]), 3)  # two components
def test_ball_matches_breadth_first_oracle(case, radius):
    n, pairs = case
    g = build_graph(n, pairs)
    for v in range(n):
        assert ball(g, v, radius) == ball_by_bfs(g, v, radius), (v, radius)
    assert cached_views(g) <= {"degree_array"}


def test_ball_never_contains_center_and_is_monotone():
    g = sample_gnm(12, 18, 5)
    for v in range(g.n):
        prev = frozenset()
        for radius in (1, 2, 3):
            b = ball(g, v, radius)
            assert v not in b
            assert prev <= b
            prev = b
