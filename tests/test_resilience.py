import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from process_resilience.classify import classify_vertices
from process_resilience.graphs import (build_graph, connected_components,
                                       giant_component, is_connected,
                                       is_k_connected, k_core)
from process_resilience.process import sample_gnm, pair_count
from process_resilience.resilience import (
    AttackError,
    BudgetRule,
    Cut,
    attack_ratios,
    budget_allows,
    cherry_attack,
    connectivity_resilience_threshold,
    crossing_degrees,
    crossing_edges,
    cut_from_json_dict,
    cut_to_json_dict,
    find_disconnecting_attack,
    find_k_conn_attack,
    greedy_partition_attack,
    random_equipartition,
    replay_cut,
    _equipartition_d_set,
    _first_feasible_cut,
)
from process_resilience.rng import generator
from conftest import cherry_gadget, complete, cycle, manual_cls, path, star
from oracles import (
    adjacency_sets,
    budget_caps,
    cached_views,
    connected_graphs_up_to_iso,
    crossing_counts,
    degrees_by_pairs,
    exists_disconnecting_h,
    exists_disconnecting_h_literal,
    exists_kconn_attack_h,
    exists_kconn_attack_h_literal,
    first_cherry,
    first_cut_in_mask_order,
    greedy_attack_reference,
    local_search_threshold_reference,
    min_max_ratio_cut,
    removal_disconnects,
    star_condition_holds,
)


# -- budgets ---------------------------------------------------------------

def test_empty_h_always_allowed_for_fraction():
    for g in (complete(4), cycle(5), star(6)):
        assert budget_allows(g, (), BudgetRule("1/4"))


def test_fraction_budget_concentrated_removal():
    k4 = complete(4)
    h = [(0, 1), (0, 2), (0, 3)]
    assert not budget_allows(k4, h, BudgetRule("1/2"))
    assert budget_allows(k4, h, BudgetRule(1))


def test_fraction_boundary_is_exact():
    c6 = cycle(6)
    h = [(0, 1)]
    assert budget_allows(c6, h, BudgetRule("1/2"))
    assert not budget_allows(c6, h, BudgetRule("49/100"))


def test_cherry_edge_within_one_third_budget():
    g = cherry_gadget()
    edge = cherry_attack(g)
    assert edge == (2, 3)
    assert budget_allows(g, [edge], BudgetRule("1/3"))


def test_keep_degree_budget():
    k4 = complete(4)
    h = [(0, 1), (2, 3)]
    assert budget_allows(k4, h, BudgetRule("2/3", 2))
    assert not budget_allows(k4, h, BudgetRule("2/3", 3))


@pytest.mark.parametrize("alpha", ["-1/10", "11/10", 2])
def test_budget_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(ValueError, match="alpha"):
        BudgetRule(alpha)
    with pytest.raises(ValueError, match="alpha"):
        BudgetRule(alpha, 2)


def test_budget_accepts_alpha_endpoints():
    assert BudgetRule(0).caps(cycle(4)).tolist() == [0, 0, 0, 0]
    assert BudgetRule(1).caps(cycle(4)).tolist() == [2, 2, 2, 2]


def test_fraction_caps_are_the_floor_of_alpha_deg():
    g = sample_gnm(12, 30, 3)
    for alpha in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 7), 1):
        assert (BudgetRule(alpha).caps(g).tolist()
                == [math.floor(alpha * d) for d in g.degree_array.tolist()])


def test_caps_match_the_python_formula_past_the_int64_guard():
    # Fraction(0.6) has a 53-bit numerator: num * deg leaves int64 once a
    # degree passes 1707, where the caps must still be exact floors
    big = star(2000)
    small = sample_gnm(12, 30, 3)
    for g in (big, small):
        for alpha, k in ((Fraction(0.6), 0), (Fraction(0.6), 3),
                         (Fraction(1, 2 ** 70), 0), (Fraction(2 ** 70 - 1, 2 ** 70), 1)):
            num, den = alpha.numerator, alpha.denominator
            assert BudgetRule(alpha, k).caps(g).tolist() == [
                min(num * d // den, d - k) for d in g.degree_array.tolist()], (g.n, alpha, k)
    assert BudgetRule(Fraction(0.6)).caps(big)[0] == 1199


def test_caps_stay_python_ints_outside_int64():
    # a cap min(num * d // den, d - k) of k = 2^70 lies below int64, and
    # one of a 2^71 denominator is exact only in Python ints
    g = sample_gnm(12, 30, 3)
    for alpha, k in ((Fraction(1), 2 ** 70), (Fraction(2 ** 70 + 1, 2 ** 71), 0),
                     (Fraction(1), 2 ** 63), (Fraction(1), 2 ** 63 + 1)):
        caps = BudgetRule(alpha, k).caps(g)
        assert caps.tolist() == [min(alpha.numerator * d // alpha.denominator, d - k)
                                 for d in g.degree_array.tolist()]
        assert caps.dtype == (object if k > 2 ** 63 else np.int64)
    # no wrap-around: a keep-degree 2^70 admits nothing, not even the empty H
    rule = BudgetRule(Fraction(1), 2 ** 70)
    assert not budget_allows(g, (), rule)
    cut = Cut(frozenset(), frozenset(range(6)), frozenset(range(6, 12)))
    verdict = replay_cut(g, cut, rule)
    assert not verdict["budget_allowed"] and not verdict["keep_degree_ok"]


def test_caps_are_negative_where_k_exceeds_the_degree():
    caps = BudgetRule(Fraction(1, 2), 3).caps(star(4))
    assert caps.tolist() == [0, -2, -2, -2]
    g = build_graph(3, [(0, 1)])
    assert BudgetRule(Fraction(1), 2).caps(g).tolist() == [-1, -1, -2]


def test_budget_rejects_negative_k():
    with pytest.raises(ValueError, match="k must be an integer >= 0, got -1"):
        BudgetRule(Fraction(1, 2), -1)


def test_budget_rejects_non_edges():
    with pytest.raises(ValueError, match="not an edge"):
        budget_allows(cycle(4), [(0, 2)], BudgetRule("1/2"))


@pytest.mark.parametrize("h", [[(-1, 0)], [(0, 2)], [(0, 7)], [(-1, 7)],
                               [(-2 ** 62, 1)], [(0, 1), (2, 0)]])
def test_h_count_rejects_pairs_outside_the_graph(h):
    # (-1, 0) once charged vertex 3; (-1, 7) has the key of edge (0, 3), and
    # so has (-2**62, 1) of edge (0, 1) once -2**62 * 4 wraps around int64
    c4 = cycle(4)
    bad = next(pair for pair in h if pair not in ((0, 1), (1, 0)))
    for count in (lambda: budget_allows(c4, h, BudgetRule(1)),
                  lambda: attack_ratios(c4, h)):
        with pytest.raises(ValueError, match=rf"h contains \({bad[0]}, {bad[1]}\) "
                                             r"which is not an edge of g"):
            count()


def test_h_count_takes_edges_in_either_orientation():
    c4 = cycle(4)
    assert attack_ratios(c4, [(3, 0), (2, 1)]) == {v: Fraction(1, 2) for v in range(4)}
    assert budget_allows(c4, [(3, 0), (2, 1)], BudgetRule(Fraction(1, 2)))
    assert not budget_allows(c4, [(3, 0), (0, 1)], BudgetRule(Fraction(1, 2)))


def test_budget_monotone_under_shrinking():
    g = sample_gnm(8, 14, 3)
    rule = BudgetRule("1/2")
    h = list(g.edges[:6])
    if budget_allows(g, h, rule):
        for i in range(len(h)):
            assert budget_allows(g, h[:i], rule)


# -- exact disconnecting attack and threshold ------------------------------

def test_c6_attack_at_half_and_not_below():
    c6 = cycle(6)
    cut = find_disconnecting_attack(c6, BudgetRule("1/2"))
    assert cut is not None
    h = crossing_edges(c6, cut)
    assert budget_allows(c6, h, BudgetRule("1/2"))
    assert find_disconnecting_attack(c6, BudgetRule("49/100")) is None


def test_k4_attack_threshold_behaviour():
    k4 = complete(4)
    assert find_disconnecting_attack(k4, BudgetRule("3/5")) is None
    cut = find_disconnecting_attack(k4, BudgetRule("2/3"))
    assert cut is not None
    assert {len(cut.side_a), len(cut.side_b)} == {2}


def test_attack_degenerate_small_graphs():
    k2 = build_graph(2, [(0, 1)])
    cut = find_disconnecting_attack(k2, BudgetRule(1))
    assert cut == Cut(frozenset(), frozenset({0}), frozenset({1}))
    assert find_disconnecting_attack(k2, BudgetRule("99/100")) is None
    assert find_disconnecting_attack(build_graph(1, []),
                                     BudgetRule(1)) is None


@pytest.mark.parametrize("g", [build_graph(2, [(0, 1)]), path(3)],
                         ids=["K_2", "P_3"])
def test_attack_exists_iff_alpha_reaches_threshold_small(g):
    alpha_star = connectivity_resilience_threshold(g).threshold
    assert alpha_star == 1
    for alpha in (Fraction(0), Fraction(1, 2), Fraction(2, 3),
                  Fraction(99, 100), Fraction(1)):
        cut = find_disconnecting_attack(g, BudgetRule(alpha))
        assert (cut is not None) == (alpha >= alpha_star), alpha


def test_attack_requires_connected_input():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="connected"):
        find_disconnecting_attack(g, BudgetRule("1/2"))


def test_attack_exact_limit_guidance():
    g = cycle(30)
    with pytest.raises(ValueError, match="local_search"):
        find_disconnecting_attack(g, BudgetRule("1/2"))


def test_threshold_k2():
    rep = connectivity_resilience_threshold(build_graph(2, [(0, 1)]))
    assert rep.threshold == 1 and rep.method == "exact"


@pytest.mark.parametrize("n", range(4, 9))
def test_threshold_cycles(n):
    assert connectivity_resilience_threshold(cycle(n)).threshold == Fraction(1, 2)


@pytest.mark.parametrize("n", range(3, 9))
def test_threshold_complete(n):
    expect = Fraction(-(-n // 2), n - 1)
    assert connectivity_resilience_threshold(complete(n)).threshold == expect


def test_threshold_witness_is_self_verifying():
    for g in (cycle(6), complete(5), cherry_gadget()):
        rep = connectivity_resilience_threshold(g)
        verdict = replay_cut(g, rep.witness, BudgetRule(rep.threshold))
        assert verdict["valid"], (g.edges, rep)


def test_threshold_consistency_with_attack():
    # attack exists iff alpha >= alpha*, checked around the threshold
    for seed in range(12):
        g = sample_gnm(7, 10, seed)
        if not is_connected(g):
            continue
        alpha_star = connectivity_resilience_threshold(g).threshold
        assert find_disconnecting_attack(g, BudgetRule(alpha_star)) is not None
        just_below = alpha_star - Fraction(1, 1000)
        assert find_disconnecting_attack(g, BudgetRule(just_below)) is None


def test_local_search_upper_bounds_exact():
    equal = total = 0
    for seed in range(25):
        g = sample_gnm(9, 16, 1000 + seed)
        if not is_connected(g):
            continue
        total += 1
        exact = connectivity_resilience_threshold(g).threshold
        approx = connectivity_resilience_threshold(
            g, mode="local_search", restarts=32, seed=seed)
        assert approx.threshold >= exact
        equal += approx.threshold == exact
    # regression statistic: local search matches the exact optimum on at
    # least 90% of these seeded instances
    assert equal / total >= 0.9, (equal, total)


@st.composite
def connected_graphs(draw, max_n):
    """A connected graph: a random spanning tree plus random extra edges."""
    n = draw(st.integers(2, max_n))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    tree = [(p, v) for v, p in enumerate(parents, start=1)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
    return build_graph(n, tree + extra)


@given(connected_graphs(max_n=24), st.integers(1, 4), st.integers(0, 2**32))
# small graphs on which a top vertex's neighbours must learn of each change
# in its top status, or the flip filter skips an improving flip
@example(sample_gnm(9, 27, 0), 2, 7)
@example(sample_gnm(13, 34, 3), 2, 10)
@example(sample_gnm(14, 41, 1), 1, 1)
# the integer scoring's corners: a top a/b with at[d] = -1 at a present
# degree d (b does not divide d*a), a new top found mid-pass that a later
# vertex of the same pass flips against, and a restart ending at the top
# of an earlier one, whose witness must stay the earlier restart's
@example(sample_gnm(5, 5, 0), 1, 0)
@example(sample_gnm(5, 5, 3), 1, 5)
@example(sample_gnm(4, 4, 0), 2, 0)
# the quotient copy a summit reads: each flip must patch v and its
# neighbours into it at every summit, and each restart must copy afresh
@example(sample_gnm(6, 7, 0), 3, 1)
@settings(max_examples=150, deadline=None)
def test_local_search_matches_slow_reference(g, restarts, seed):
    rep = connectivity_resilience_threshold(g, mode="local_search",
                                            restarts=restarts, seed=seed)
    expected = local_search_threshold_reference(g, restarts, seed)
    assert (rep.threshold, rep.witness.side_a, rep.witness.side_b) == expected


@pytest.mark.parametrize("restarts", [0, -1])
def test_local_search_rejects_restarts_below_one(restarts):
    with pytest.raises(ValueError, match="restarts"):
        connectivity_resilience_threshold(cycle(6), mode="local_search",
                                          restarts=restarts)


# -- exact search past a tied optimum -------------------------------------

def _side_b(n, mask):
    """B side of a mask in the canonical order (bit i: vertex i + 1)."""
    return frozenset(i + 1 for i in range(n - 1) if mask >> i & 1)


# (graph, mask of a later optimum): the witness must be the first optimum
# in mask order, not this tie
_TIED_CASES = [
    ("C_16", cycle(16), 0b110000000000000),              # B = {14, 15}
    ("G(15, 40) seed 0", sample_gnm(15, 40, 0), 11604),
    ("G(16, 40) seed 23", sample_gnm(16, 40, 23), 21790),
]


@pytest.mark.parametrize("name, g, tie", _TIED_CASES,
                         ids=[case[0] for case in _TIED_CASES])
def test_exact_witness_precedes_a_later_tie(name, g, tie):
    alpha_star, side_a, side_b = min_max_ratio_cut(g)
    rep = connectivity_resilience_threshold(g)
    assert rep.threshold == alpha_star
    assert _as_triple(rep.witness) == (frozenset(), side_a, side_b)
    # the later tie reaches alpha* too
    first = sum(1 << (v - 1) for v in side_b)
    assert first < tie
    tie_b = _side_b(g.n, tie)
    counts = crossing_counts(g, frozenset(range(g.n)) - tie_b, tie_b)
    deg = g.degree_array.tolist()
    assert max(Fraction(counts[v], deg[v]) for v in range(g.n)) == alpha_star
    for alpha in (alpha_star, alpha_star - Fraction(1, 1000)):
        cut = find_disconnecting_attack(g, BudgetRule(alpha))
        assert _as_triple(cut) == first_cut_in_mask_order(
            g, budget_caps(g, alpha)), alpha


def test_first_feasible_cut_matches_reference_on_any_caps():
    """Caps may be negative, also at separator vertices, which cross
    nothing and so pass iff their cap is at least 0."""
    rng = random.Random(11)
    for seed in range(60):
        g = sample_gnm(7, 6 + seed % 12, 900 + seed)
        for _ in range(5):
            caps = [rng.randint(-1, 3) for _ in range(g.n)]
            sep = tuple(sorted(rng.sample(range(g.n), rng.randint(0, 2))))
            cut = _first_feasible_cut(g, caps, sep)
            assert _as_triple(cut) == first_cut_in_mask_order(g, caps, sep), \
                (g.edges, caps, sep)


# K_4 less the edge {0, 2}: counting vertex 0 among the undecided
# neighbours over-prunes the cut search here (alpha* 2/3 would read 1)
_BIT0_TRAP = build_graph(4, [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)])


@st.composite
def graphs_caps_separators(draw):
    """A graph on 1..11 vertices (no edges and isolated vertices included)
    with caps in -1..4 and a separator of 0..2 vertices."""
    n = draw(st.integers(1, 11))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    caps = draw(st.lists(st.integers(-1, 4), min_size=n, max_size=n))
    sep = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
    return build_graph(n, edges), caps, tuple(sorted(sep))


@given(graphs_caps_separators())
@example((build_graph(1, []), [0], ()))
@example((build_graph(2, [(0, 1)]), [1, 1], ()))
@example((build_graph(2, [(0, 1)]), [1, 1], (1,)))
@example((build_graph(5, []), [0] * 5, ()))
@example((build_graph(3, [(1, 2)]), [-1, 1, 1], ()))
@example((build_graph(3, [(1, 2)]), [-1, 1, 1], (0,)))
@example((_BIT0_TRAP, budget_caps(_BIT0_TRAP, Fraction(2, 3)), ()))
@settings(max_examples=300, deadline=None)
def test_first_feasible_cut_matches_mask_order_reference(case):
    g, caps, sep = case
    assert _as_triple(_first_feasible_cut(g, caps, sep)) == \
        first_cut_in_mask_order(g, caps, sep)


@given(connected_graphs(max_n=11))
@example(build_graph(2, [(0, 1)]))
@example(cycle(4))
@example(complete(6))
@example(_BIT0_TRAP)
@settings(max_examples=150, deadline=None)
def test_exact_threshold_matches_min_max_ratio_reference(g):
    alpha_star, side_a, side_b = min_max_ratio_cut(g)
    rep = connectivity_resilience_threshold(g)
    assert (rep.threshold, rep.witness.side_a, rep.witness.side_b) == \
        (alpha_star, side_a, side_b)


# -- oracle agreement (small corpus; acceptance covers the full one) -------

def test_pruned_oracle_matches_literal_enumeration():
    for seed in range(10):
        g = sample_gnm(5, 7, seed)
        if not is_connected(g):
            continue
        for alpha in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
            caps = budget_caps(g, alpha)
            assert (exists_disconnecting_h(g, caps)
                    == exists_disconnecting_h_literal(g, caps)), (g.edges, alpha)


def test_kconn_oracle_matches_literal_enumeration():
    # the last graph is a core whose labels are not its vertex indices: K5
    # on 3..7 behind the pendant path 0-1-2-3
    pendant = build_graph(8, [(0, 1), (1, 2), (2, 3)] + list(combinations(range(3, 8), 2)))
    for g in [sample_gnm(5, 8, seed) for seed in range(8)] + [k_core(pendant, 2)]:
        for k in (2, 3):
            for alpha in (Fraction(1, 2), Fraction(2, 3)):
                caps = budget_caps(g, alpha, k)
                assert (exists_kconn_attack_h(g, caps, k)
                        == exists_kconn_attack_h_literal(g, caps, k)), \
                    (g.edges, k, alpha)


def test_attack_agrees_with_naive_oracle_random():
    for seed in range(15):
        g = sample_gnm(7, 11, 50 + seed)
        if not is_connected(g):
            continue
        for alpha in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)):
            cut = find_disconnecting_attack(g, BudgetRule(alpha))
            oracle = exists_disconnecting_h(g, budget_caps(g, alpha))
            assert (cut is not None) == oracle, (g.edges, alpha)


def test_kconn_attack_agrees_with_naive_oracle_random():
    rule_alpha = Fraction(1, 2)
    for seed in range(10):
        g = sample_gnm(6, 11, 30 + seed)
        for k in (2, 3):
            from process_resilience.graphs import is_k_connected
            if not is_k_connected(g, k):
                continue
            rule = BudgetRule(rule_alpha, k)
            cut = find_k_conn_attack(g, rule, k)
            oracle = exists_kconn_attack_h(g, budget_caps(g, rule_alpha, k), k)
            assert (cut is not None) == oracle, (g.edges, k)
            if cut is not None:
                verdict = replay_cut(g, cut, rule)
                assert verdict["valid"]


# -- crossing degrees ------------------------------------------------------

@st.composite
def graphs_with_sides(draw):
    """Any graph on 0..9 vertices (empty, disconnected and isolated
    vertices included) with each vertex on side 0, side 1 or unplaced."""
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    side = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n))
    return build_graph(n, edges), side


@given(graphs_with_sides())
@settings(max_examples=300, deadline=None)
def test_crossing_degrees_match_edge_recount(case):
    g, side = case
    counts = crossing_counts(
        g, frozenset(v for v in range(g.n) if side[v] == 0),
        frozenset(v for v in range(g.n) if side[v] == 1))
    assert crossing_degrees(g, side).tolist() == [counts[v] for v in range(g.n)]


# -- canonical witnesses ---------------------------------------------------

def _witness_corpus():
    """Every connected graph on 2..6 vertices up to isomorphism, then
    seeded random connected graphs on 4..9 vertices."""
    graphs = list(connected_graphs_up_to_iso(6))
    for seed in range(60):
        n = 4 + seed % 6
        m = min(pair_count(n), n - 1 + seed % (2 * n))
        g = sample_gnm(n, m, 7000 + seed)
        if is_connected(g):
            graphs.append(g)
    return graphs


def _as_triple(cut):
    return None if cut is None else (cut.separator, cut.side_a, cut.side_b)


def test_witnesses_match_mask_order_references():
    """The threshold witness and both attack certificates are the first
    ones in canonical order, as the slow references in oracles.py find."""
    alphas = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))
    kconn_checked = 0
    for g in _witness_corpus():
        rep = connectivity_resilience_threshold(g)
        alpha_star, side_a, side_b = min_max_ratio_cut(g)
        assert rep.threshold == alpha_star, g.edges
        assert _as_triple(rep.witness) == (frozenset(), side_a, side_b), g.edges
        for alpha in alphas:
            cut = find_disconnecting_attack(g, BudgetRule(alpha))
            expected = first_cut_in_mask_order(g, budget_caps(g, alpha))
            assert _as_triple(cut) == expected, (g.edges, alpha)
        for k in (2, 3):
            if not is_k_connected(g, k):
                continue
            kconn_checked += 1
            for alpha in alphas:
                caps = budget_caps(g, alpha, k)
                expected = next(
                    (found for size in range(k)
                     for sep in combinations(range(g.n), size)
                     if (found := first_cut_in_mask_order(g, caps, sep))),
                    None)
                cut = find_k_conn_attack(
                    g, BudgetRule(alpha, k), k)
                assert _as_triple(cut) == expected, (g.edges, k, alpha)
    assert kconn_checked >= 50, kconn_checked


# -- k-connectivity attack fixtures ----------------------------------------

def test_k4_keep_degree_attack_absent():
    k4 = complete(4)
    assert find_k_conn_attack(k4, BudgetRule("2/5", 1), 1) is None


def test_k5_keep_degree_fixture():
    # oracle-resolved fixture: at alpha = 9/10, k = 2 a certificate exists
    # (drop one vertex, split the remaining K_4 two and two)
    k5 = complete(5)
    rule = BudgetRule("9/10", 2)
    cut = find_k_conn_attack(k5, rule, 2)
    assert cut is not None
    assert len(cut.separator) == 1
    assert replay_cut(k5, cut, rule)["valid"]
    assert exists_kconn_attack_h(k5, budget_caps(k5, Fraction(9, 10), 2), 2)


def test_c6_kconn_attack_below_half_absent():
    c6 = cycle(6)
    for rule in (BudgetRule("49/100"),
                 BudgetRule("49/100", 2)):
        assert find_k_conn_attack(c6, rule, 2) is None


def test_kconn_attack_requires_k_connected_input():
    with pytest.raises(ValueError, match="k-connected"):
        find_k_conn_attack(path(4), BudgetRule("1/2"), 2)


# -- cherry attack ---------------------------------------------------------

def test_cherry_gadget_end_to_end():
    g = cherry_gadget()
    edge = cherry_attack(g)
    assert edge == (2, 3)
    assert budget_allows(g, [edge], BudgetRule("1/3"))
    rest = build_graph(g.n, [e for e in g.edges if e != edge])
    comps = connected_components(rest)
    assert len(comps) == 2
    assert comps[0] == frozenset({0, 1, 2}) or comps[1] == frozenset({0, 1, 2})


def test_cherry_none_on_cycle():
    assert cherry_attack(cycle(5)) is None


def test_cherry_tie_break_smallest_center():
    # cherries at centres 2 and 7; the attack picks the one at 2
    edges = [(0, 2), (1, 2), (2, 4), (5, 7), (6, 7), (7, 4), (4, 8), (8, 9)]
    g = build_graph(10, edges)
    assert cherry_attack(g) == (2, 4)


@given(st.integers(0, 2 ** 31), st.integers(2, 14), st.integers(0, 14))
@settings(max_examples=200, deadline=None)
@example(0, 6, 0)  # no edges
def test_cherry_matches_vertex_scan(seed, n, m):
    # sparse graphs have many leaves, so some of them have cherries
    g = sample_gnm(n, min(m, pair_count(n)), seed)
    assert cherry_attack(g) == first_cherry(g)


def test_cherry_skips_all_leaf_centers():
    g = star(4)  # centre has three leaves, no anchor edge to cut
    assert cherry_attack(g) is None


# -- star condition --------------------------------------------------------

def _star_holds(g, cut, epsilon):
    """The star condition cross(v) <= (1/2 + epsilon) deg(v) at every
    vertex, as the budget verdict of replay_cut."""
    rule = BudgetRule(Fraction(1, 2) + Fraction(epsilon))
    return replay_cut(g, cut, rule)["budget_allowed"]


def test_star_condition_c6_contiguous_split():
    c6 = cycle(6)
    cut = Cut(frozenset(), frozenset({0, 1, 2}), frozenset({3, 4, 5}))
    assert _star_holds(c6, cut, Fraction(0))


def test_star_condition_k4_splits():
    k4 = complete(4)
    lopsided = Cut(frozenset(), frozenset({0}), frozenset({1, 2, 3}))
    balanced = Cut(frozenset(), frozenset({0, 1}), frozenset({2, 3}))
    assert not _star_holds(k4, lopsided, Fraction(1, 10))
    assert _star_holds(k4, balanced, Fraction(1, 5))


def test_star_condition_boundary_ties():
    c6 = cycle(6)
    alternating = Cut(frozenset(), frozenset({0, 2, 4}), frozenset({1, 3, 5}))
    # every vertex crosses 2 of 2 edges: over deg/2, exactly at deg
    assert not _star_holds(c6, alternating, Fraction(0))
    assert _star_holds(c6, alternating, Fraction(1, 2))
    # K_4 split 2/2 crosses 2 of 3 edges: 2 <= (1/2 + 1/6) * 3 is a tie
    balanced = Cut(frozenset(), frozenset({0, 1}), frozenset({2, 3}))
    assert _star_holds(complete(4), balanced, Fraction(1, 6))
    assert not _star_holds(complete(4), balanced, Fraction(1, 7))


def test_star_condition_with_isolated_vertices():
    g = build_graph(4, [(0, 1)])  # 2 and 3 isolated
    apart = Cut(frozenset(), frozenset({0, 2}), frozenset({1, 3}))
    together = Cut(frozenset(), frozenset({0, 1, 3}), frozenset({2}))
    assert _star_holds(g, together, Fraction(-1, 2))
    assert not _star_holds(g, apart, Fraction(0))
    assert _star_holds(g, apart, Fraction(1, 2))


@st.composite
def graphs_with_cuts(draw):
    """Any graph on 2..9 vertices (isolated vertices included) with a
    bipartition of its vertex set into two nonempty sides."""
    n = draw(st.integers(2, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    on_b = draw(st.lists(st.booleans(), min_size=n, max_size=n)
                .filter(lambda b: any(b) and not all(b)))
    side_b = frozenset(v for v in range(n) if on_b[v])
    return build_graph(n, edges), Cut(frozenset(), frozenset(range(n)) - side_b, side_b)


_HALF = Fraction(1, 2)


@given(graphs_with_cuts(),
       st.one_of(st.sampled_from([Fraction(0), _HALF, -_HALF, Fraction(1, 6),
                                  Fraction(-1, 6), Fraction(1, 4)]),
                 st.fractions(-_HALF, _HALF, max_denominator=12)))
@settings(max_examples=400, deadline=None)
def test_star_condition_matches_rational_reference(case, epsilon):
    g, cut = case
    assert _star_holds(g, cut, epsilon) == star_condition_holds(
        g, cut.side_a, cut.side_b, epsilon)


# -- greedy partition attack -----------------------------------------------

def test_greedy_on_complete_graph_returns_equipartition():
    k100 = complete(100)
    cls = classify_vertices(k100, 1.0, 0.05)  # np = 100: every degree typical
    assert not cls.tiny and not cls.atyp
    outcome = greedy_partition_attack(k100, cls, d_threshold=1e9,
                                      epsilon=Fraction(3, 500), seed=123)
    assert outcome.satisfied
    assert len(outcome.cut.side_a) == 50 and len(outcome.cut.side_b) == 50
    ratios = attack_ratios(k100, crossing_edges(k100, outcome.cut))
    assert set(ratios.values()) == {Fraction(50, 99)}
    assert outcome.diagnostics["moves"] == 0


def test_greedy_on_complete_graph_tight_epsilon_fails():
    k100 = complete(100)
    cls = classify_vertices(k100, 1.0, 0.05)
    try:
        outcome = greedy_partition_attack(k100, cls, d_threshold=1e9,
                                          epsilon=Fraction(1, 200), seed=123)
        assert not outcome.satisfied
    except AttackError:
        pass  # collapse is an acceptable failure mode below the feasible eps


def test_greedy_is_deterministic():
    g = sample_gnm(128, 500, 9)
    cls = classify_vertices(g, 500 / pair_count(128), 0.5)
    a = greedy_partition_attack(g, cls, 8.0, Fraction(1, 10), seed=5)
    b = greedy_partition_attack(g, cls, 8.0, Fraction(1, 10), seed=5)
    assert a.cut == b.cut and a.satisfied == b.satisfied
    assert a.diagnostics == b.diagnostics


def test_greedy_rearrangement_fixes_tiny_vertices():
    # leaves of the cherry gadget marked tiny: at the fixpoint no tiny
    # vertex may have more than half its edges crossing
    g = cherry_gadget()
    cls = manual_cls(g, tiny={0, 1})
    outcome = greedy_partition_attack(g, cls, d_threshold=1e9,
                                      epsilon=Fraction(49, 100), seed=3)
    in_b = {v: (v in outcome.cut.side_b) for v in range(g.n)}
    adj = adjacency_sets(g)
    for v in cls.tiny:
        cross = sum(1 for u in adj[v] if in_b[u] != in_b[v])
        assert 2 * cross <= len(adj[v])


def test_greedy_holds_tiny_vertices_to_half_their_degree():
    # at epsilon = 49/100 a non-tiny vertex may cross up to 0.99 of its
    # edges, a tiny one only half: mark the odd-degree vertices tiny
    g = giant_component(sample_gnm(64, 200, 0))
    deg = g.degree_array.tolist()
    tiny = [v for v in range(g.n) if deg[v] % 2]
    outcome = greedy_partition_attack(g, manual_cls(g, tiny=tiny), d_threshold=1e9,
                                      epsilon=Fraction(49, 100), seed=0)
    on_b = [int(v in outcome.cut.side_b) for v in range(g.n)]
    over_half = {v for v, c in enumerate(crossing_degrees(g, on_b))
                 if 2 * c > deg[v]}
    assert over_half and not over_half & set(tiny)


def test_greedy_satisfied_is_replayable():
    g = sample_gnm(256, 1200, 21)
    cls = classify_vertices(g, 1200 / pair_count(256), 0.5)
    outcome = greedy_partition_attack(g, cls, d_threshold=7.0,
                                      epsilon=Fraction(1, 10), seed=2)
    assert outcome.satisfied == star_condition_holds(
        g, outcome.cut.side_a, outcome.cut.side_b, Fraction(1, 10))
    if outcome.satisfied:
        # removing H disconnects (certificate is self-verifying); use a
        # generous fraction since the star bound is what the attack targets
        verdict = replay_cut(g, outcome.cut, BudgetRule("3/5"))
        assert verdict["disconnects"]


@st.composite
def greedy_cases(draw):
    """A G(n, m) on 2..60 vertices (isolated vertices included) with tiny
    and atypical sets (none, all, or any), a D threshold (0 up to one no
    degree reaches, so that nothing may be removed), an epsilon anywhere in
    (0, 1/2) and an attack seed."""
    n = draw(st.integers(2, 60))
    g = sample_gnm(n, draw(st.integers(0, min(pair_count(n), 4 * n))),
                   draw(st.integers(0, 2 ** 32)))
    vertex_sets = st.one_of(st.just(frozenset()), st.just(frozenset(range(n))),
                            st.frozensets(st.integers(0, n - 1)))
    return (g, draw(vertex_sets), draw(vertex_sets),
            draw(st.one_of(st.integers(0, 8), st.just(n))),
            draw(st.one_of(st.sampled_from([Fraction(1, 1000), Fraction(499, 1000)]),
                           st.fractions(Fraction(1, 50), Fraction(24, 50),
                                        max_denominator=50))),
            draw(st.integers(0, 2 ** 32)))


def _golden_greedy_case(n, m, gseed, delta, factor, eps, seed):
    """A run of test_greedy_golden.py as a greedy_cases draw."""
    g = giant_component(sample_gnm(n, m, gseed))
    p = m / pair_count(n)
    cls = classify_vertices(g, p, delta)
    return g, cls.tiny, cls.atyp, factor * n * p, eps, seed


@given(greedy_cases())
# the COLLAPSE run of test_greedy_golden.py
@example(_golden_greedy_case(64, 150, 0, 0.5, 0.7, Fraction(1, 10), 0))
# in the first sweep, moving 2 puts 6 over its cap, which moves later in
# that sweep, and moving 5 and 6 put 2 and 1 over theirs, which wait
@example((sample_gnm(9, 17, 329), frozenset({2}), frozenset({6, 7}), 9,
          Fraction(1, 100), 4))
# isolated atypical 4 ties 0-0 and goes to A; at seed 1, 0 and 2 lie on A and
# B, so the path's middle ties 1-1
@example((build_graph(5, [(0, 1), (1, 2)]), frozenset(), frozenset({1, 4}), 9,
          Fraction(1, 1000), 1))
# everything tiny and atypical; nothing removed
@example((sample_gnm(20, 60, 1), frozenset(range(20)), frozenset(range(20)), 0,
          Fraction(499, 1000), 2))
@example((sample_gnm(20, 60, 1), frozenset(), frozenset(), 20, Fraction(1, 1000), 2))
@settings(max_examples=400, deadline=None)
def test_greedy_matches_full_scan_reference(case):
    g, tiny, atyp, d_threshold, eps, seed = case
    want = greedy_attack_reference(g, tiny, atyp, d_threshold, eps, seed)
    try:
        outcome = greedy_partition_attack(g, manual_cls(g, tiny, atyp), d_threshold,
                                          eps, seed)
    except AttackError as exc:
        assert type(exc) is want
        return
    assert want == {"side_a": outcome.cut.side_a, "side_b": outcome.cut.side_b,
                    "moves": outcome.diagnostics["moves"],
                    "sweeps": outcome.diagnostics["sweeps"],
                    "satisfied": outcome.satisfied}


def test_greedy_universe_mismatch_rejected():
    g = sample_gnm(16, 40, 1)
    cls = classify_vertices(sample_gnm(17, 40, 1), 0.3, 0.5)
    with pytest.raises(ValueError, match="universe"):
        greedy_partition_attack(g, cls, 5.0, Fraction(1, 10), seed=0)


# n = 2, no edges, and a threshold of at least every degree (empty D); a
# complete graph on 7 vertices puts 4 against each of the 3 on one side
@pytest.mark.parametrize("g, d_threshold, d_size", [
    (complete(2), 0, 2), (build_graph(6, []), 0, 0), (complete(7), 3, 3),
    (cycle(9), 1, None), (star(8), 7, 0)])
@pytest.mark.parametrize("seed", [0, 3])
def test_equipartition_d_set_matches_crossing_recount(g, d_threshold, d_size, seed):
    side, d_set = _equipartition_d_set(g, d_threshold, seed)
    assert side.dtype == np.int64
    side = side.tolist()
    assert side == random_equipartition(g.n, generator(seed)).tolist()
    assert sorted(side) == [0] * (g.n // 2) + [1] * (g.n - g.n // 2)
    counts = crossing_counts(g, *({v for v in range(g.n) if side[v] == s} for s in (0, 1)))
    assert d_set.tolist() == [v for v in range(g.n) if counts[v] > d_threshold]
    assert d_size is None or len(d_set) == d_size


@pytest.mark.parametrize("seed", [1, 2])
def test_sweep_pipeline_builds_no_adjacency_rows(seed):
    # the criterion-4 sweep trial at n = 4096, m = ceil(n ln n): components,
    # the giant, the classes and the cherry scan read the CSR arrays, and
    # the greedy attack reads only the rows it walks
    n, m = 4096, 34070
    g = sample_gnm(n, m, seed)
    giant = giant_component(g)
    p1 = m / pair_count(n)
    cls = classify_vertices(giant, p1, 0.5)
    cherry_attack(giant)
    assert cached_views(g) <= {"degree_array"} and cached_views(giant) <= {"degree_array"}
    greedy_partition_attack(giant, cls, 0.7 * giant.n * p1, Fraction(1, 10), seed)
    assert cached_views(giant) <= {"degree_array"}


# -- certificates and serialization ----------------------------------------

def test_every_attack_cut_is_self_verifying():
    rule = BudgetRule("2/3")
    for seed in range(10):
        g = sample_gnm(7, 12, 200 + seed)
        if not is_connected(g):
            continue
        cut = find_disconnecting_attack(g, rule)
        if cut is None:
            continue
        verdict = replay_cut(g, cut, rule)
        assert verdict["valid"]
        rest_edges = [e for e in g.edges if e not in set(crossing_edges(g, cut))]
        assert len(connected_components(build_graph(g.n, rest_edges))) > 1


def test_replay_disconnects_matches_rebuild():
    """Random covering cuts, with and without a separator, always
    disconnect once H is removed; the oracle rebuilds G - S - H to check.
    H and the budget verdicts match the edge-by-edge recount."""
    rng = random.Random(5)
    checked = 0
    for seed in range(40):
        g = sample_gnm(9, 10 + seed % 20, 300 + seed)
        for _ in range(10):
            order = list(range(g.n))
            rng.shuffle(order)
            s_size = rng.randint(0, 3) if seed % 2 else 0
            rest = order[s_size:]
            split = rng.randint(1, len(rest) - 1)
            cut = Cut(frozenset(order[:s_size]), frozenset(rest[:split]),
                      frozenset(rest[split:]))
            a, b = cut.side_a, cut.side_b
            assert crossing_edges(g, cut) == tuple(
                (u, v) for u, v in g.edges
                if (u in a and v in b) or (u in b and v in a))
            counts = crossing_counts(g, a, b)
            alpha = Fraction(rng.randint(0, 4), 4)
            k = rng.randint(1, 3)
            for rule, keep in ((BudgetRule(alpha), 0),
                               (BudgetRule(alpha, k), k)):
                verdict = replay_cut(g, cut, rule)
                assert verdict["disconnects"] is True
                assert verdict["h_size"] == sum(counts.values()) // 2
                assert verdict["budget_allowed"] == all(
                    counts[v] <= cap
                    for v, cap in enumerate(budget_caps(g, alpha, keep or None)))
                assert verdict["keep_degree_ok"] == all(
                    d - counts[v] >= keep
                    for v, d in enumerate(degrees_by_pairs(g.n, g.edges)))
                assert verdict["valid"] == verdict["budget_allowed"]
            assert removal_disconnects(g, cut.separator, cut.side_a, cut.side_b)
            checked += 1
    assert checked == 400


def test_cut_json_round_trip():
    g = cycle(6)
    cut = find_disconnecting_attack(g, BudgetRule("1/2"))
    payload = cut_to_json_dict(g, cut)
    assert set(payload) == {"S", "A", "B", "H", "max_ratio", "satisfied"}
    assert payload["max_ratio"] == "1/2"
    assert cut_from_json_dict(payload) == cut


def test_cut_validation():
    with pytest.raises(ValueError, match="nonempty"):
        Cut(frozenset(), frozenset(), frozenset({1}))
    with pytest.raises(ValueError, match="disjoint"):
        Cut(frozenset({1}), frozenset({1}), frozenset({2}))
    # every function that maps a cut onto g checks that its parts cover
    # exactly 0..n-1
    checks = (crossing_edges, cut_to_json_dict,
              lambda g, cut: replay_cut(g, cut, BudgetRule(1)))
    p4 = path(4)
    off_graph = [
        (complete(3), (), {0}, {1}),         # vertex 2 is in no part
        (complete(2), (), {0}, {2}),         # the sizes add up, 2 is outside
        (complete(2), (), {0}, {-1}),
        (p4, (), {-1}, {0, 1, 2}),           # -1 would alias vertex 3
        (p4, (), {0, 1, 2}, {4}),            # vertex n
        (p4, (), {0, 1, 2}, {2 ** 70}),      # past int64, as JSON may hold
        (p4, {2 ** 70}, {0, 1}, {2}),        # a separator past int64
        (p4, {-1}, {0, 1}, {2}),
    ]
    for g, *parts in off_graph:
        cut = Cut(*map(frozenset, parts))
        for check in checks:
            with pytest.raises(ValueError, match="cover|cut vertices must be integers"):
                check(g, cut)
    cut = Cut(frozenset(), frozenset({0, 1}), frozenset({2, 3}))
    assert crossing_edges(p4, cut) == ((1, 2),)
    assert cut_to_json_dict(p4, cut)["H"] == [[1, 2]]


def test_attack_ratios_match_h():
    g = complete(4)
    h = [(0, 1), (0, 2)]
    ratios = attack_ratios(g, h)
    assert ratios[0] == Fraction(2, 3)
    assert ratios[3] == 0
