import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from process_resilience.classify import VertexClassification, classify_vertices
from process_resilience.graphs import (build_graph, connected_components,
                                       giant_component, is_connected,
                                       is_k_connected)
from process_resilience.process import sample_gnm, pair_count
from process_resilience.resilience import (
    EXACT_BIPARTITION_LIMIT,
    EXACT_SEPARATOR_LIMIT,
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
    replay_cut,
    verify_star_condition,
    _CHUNK,
    _first_feasible_cut,
)
from conftest import cherry_gadget, complete, cycle, path, star
from oracles import (
    budget_caps,
    connected_graphs_up_to_iso,
    crossing_counts,
    exists_disconnecting_h,
    exists_disconnecting_h_literal,
    exists_kconn_attack_h,
    exists_kconn_attack_h_literal,
    first_cut_in_mask_order,
    local_search_threshold_reference,
    min_max_ratio_cut,
    removal_disconnects,
    star_condition_holds,
)


def manual_cls(g, tiny=(), atyp=(), p=0.0, delta=0.5):
    return VertexClassification(g, p, delta, frozenset(tiny), frozenset(atyp))


# -- budgets ---------------------------------------------------------------

def test_empty_h_always_allowed_for_fraction():
    for g in (complete(4), cycle(5), star(6)):
        assert budget_allows(g, (), BudgetRule.fraction("1/4"))


def test_fraction_budget_concentrated_removal():
    k4 = complete(4)
    h = [(0, 1), (0, 2), (0, 3)]
    assert not budget_allows(k4, h, BudgetRule.fraction("1/2"))
    assert budget_allows(k4, h, BudgetRule.fraction(1))


def test_fraction_boundary_is_exact():
    c6 = cycle(6)
    h = [(0, 1)]
    assert budget_allows(c6, h, BudgetRule.fraction("1/2"))
    assert not budget_allows(c6, h, BudgetRule.fraction("49/100"))


def test_cherry_edge_within_one_third_budget():
    g = cherry_gadget()
    edge = cherry_attack(g)
    assert edge == (2, 3)
    assert budget_allows(g, [edge], BudgetRule.fraction("1/3"))


def test_keep_degree_budget():
    k4 = complete(4)
    h = [(0, 1), (2, 3)]
    assert budget_allows(k4, h, BudgetRule.fraction_keep_degree("2/3", 2))
    assert not budget_allows(k4, h, BudgetRule.fraction_keep_degree("2/3", 3))


@pytest.mark.parametrize("alpha", ["-1/10", "11/10", 2])
def test_budget_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(ValueError, match="alpha"):
        BudgetRule.fraction(alpha)
    with pytest.raises(ValueError, match="alpha"):
        BudgetRule.fraction_keep_degree(alpha, 2)


def test_budget_accepts_alpha_endpoints():
    assert BudgetRule.fraction(0).caps(cycle(4)) == [0, 0, 0, 0]
    assert BudgetRule.fraction(1).caps(cycle(4)) == [2, 2, 2, 2]


def test_fraction_caps_are_the_floor_of_alpha_deg():
    g = sample_gnm(12, 30, 3)
    for alpha in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 7), 1):
        assert (BudgetRule.fraction(alpha).caps(g)
                == [math.floor(alpha * d) for d in g.degrees])


def test_budget_rejects_negative_k():
    with pytest.raises(ValueError, match="k must be >= 0"):
        BudgetRule(Fraction(1, 2), -1)


def test_budget_rejects_non_edges():
    with pytest.raises(ValueError, match="not an edge"):
        budget_allows(cycle(4), [(0, 2)], BudgetRule.fraction("1/2"))


def test_budget_monotone_under_shrinking():
    g = sample_gnm(8, 14, 3)
    rule = BudgetRule.fraction("1/2")
    h = list(g.edges[:6])
    if budget_allows(g, h, rule):
        for i in range(len(h)):
            assert budget_allows(g, h[:i], rule)


# -- exact disconnecting attack and threshold ------------------------------

def test_c6_attack_at_half_and_not_below():
    c6 = cycle(6)
    cut = find_disconnecting_attack(c6, BudgetRule.fraction("1/2"))
    assert cut is not None
    h = crossing_edges(c6, cut)
    assert budget_allows(c6, h, BudgetRule.fraction("1/2"))
    assert find_disconnecting_attack(c6, BudgetRule.fraction("49/100")) is None


def test_k4_attack_threshold_behaviour():
    k4 = complete(4)
    assert find_disconnecting_attack(k4, BudgetRule.fraction("3/5")) is None
    cut = find_disconnecting_attack(k4, BudgetRule.fraction("2/3"))
    assert cut is not None
    assert {len(cut.side_a), len(cut.side_b)} == {2}


def test_attack_degenerate_small_graphs():
    k2 = build_graph(2, [(0, 1)])
    cut = find_disconnecting_attack(k2, BudgetRule.fraction(1))
    assert cut == Cut(frozenset(), frozenset({0}), frozenset({1}))
    assert find_disconnecting_attack(k2, BudgetRule.fraction("99/100")) is None
    assert find_disconnecting_attack(build_graph(1, []),
                                     BudgetRule.fraction(1)) is None


@pytest.mark.parametrize("g", [build_graph(2, [(0, 1)]), path(3)],
                         ids=["K_2", "P_3"])
def test_attack_exists_iff_alpha_reaches_threshold_small(g):
    alpha_star = connectivity_resilience_threshold(g).threshold
    assert alpha_star == 1
    for alpha in (Fraction(0), Fraction(1, 2), Fraction(2, 3),
                  Fraction(99, 100), Fraction(1)):
        cut = find_disconnecting_attack(g, BudgetRule.fraction(alpha))
        assert (cut is not None) == (alpha >= alpha_star), alpha


def test_attack_requires_connected_input():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="connected"):
        find_disconnecting_attack(g, BudgetRule.fraction("1/2"))


def test_attack_exact_limit_guidance():
    g = cycle(30)
    with pytest.raises(ValueError, match="local_search"):
        find_disconnecting_attack(g, BudgetRule.fraction("1/2"))


def test_exact_limits_fit_the_32_bit_scan():
    # the exact scan packs one side of the remaining vertices into uint32
    assert EXACT_BIPARTITION_LIMIT <= 32
    assert EXACT_SEPARATOR_LIMIT <= 32


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
        verdict = replay_cut(g, rep.witness, BudgetRule.fraction(rep.threshold))
        assert verdict["valid"], (g.edges, rep)


def test_threshold_consistency_with_attack():
    # attack exists iff alpha >= alpha*, checked around the threshold
    for seed in range(12):
        g = sample_gnm(7, 10, seed)
        if not is_connected(g):
            continue
        alpha_star = connectivity_resilience_threshold(g).threshold
        assert find_disconnecting_attack(g, BudgetRule.fraction(alpha_star)) is not None
        just_below = alpha_star - Fraction(1, 1000)
        assert find_disconnecting_attack(g, BudgetRule.fraction(just_below)) is None


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


# -- exact scan across chunks ----------------------------------------------

def _side_b(n, mask):
    """B side of a mask in the canonical order (bit i: vertex i + 1)."""
    return frozenset(i + 1 for i in range(n - 1) if mask >> i & 1)


# (graph, mask of a later optimum): the first optimum and this tie lie in
# different chunks of the scan
_CHUNKED_CASES = [
    ("C_16", cycle(16), 0b110000000000000),              # B = {14, 15}
    ("G(15, 40) seed 0", sample_gnm(15, 40, 0), 11604),
    ("G(16, 40) seed 23", sample_gnm(16, 40, 23), 21790),
]


@pytest.mark.parametrize("name, g, tie", _CHUNKED_CASES,
                         ids=[case[0] for case in _CHUNKED_CASES])
def test_exact_scan_over_several_chunks(name, g, tie):
    alpha_star, side_a, side_b = min_max_ratio_cut(g)
    rep = connectivity_resilience_threshold(g)
    assert rep.threshold == alpha_star
    assert _as_triple(rep.witness) == (frozenset(), side_a, side_b)
    # the later tie reaches alpha* too, in a later chunk
    first = sum(1 << (v - 1) for v in side_b)
    assert (first - 1) // _CHUNK < (tie - 1) // _CHUNK
    tie_b = _side_b(g.n, tie)
    counts = crossing_counts(g, frozenset(range(g.n)) - tie_b, tie_b)
    assert max(Fraction(counts[v], g.degree(v)) for v in range(g.n)) == alpha_star
    for alpha in (alpha_star, alpha_star - Fraction(1, 1000)):
        cut = find_disconnecting_attack(g, BudgetRule.fraction(alpha))
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
    for seed in range(8):
        g = sample_gnm(5, 8, seed)
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
            cut = find_disconnecting_attack(g, BudgetRule.fraction(alpha))
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
            rule = BudgetRule.fraction_keep_degree(rule_alpha, k)
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
    assert crossing_degrees(g, side) == [counts[v] for v in range(g.n)]


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
            cut = find_disconnecting_attack(g, BudgetRule.fraction(alpha))
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
                    g, BudgetRule.fraction_keep_degree(alpha, k), k)
                assert _as_triple(cut) == expected, (g.edges, k, alpha)
    assert kconn_checked >= 50, kconn_checked


# -- k-connectivity attack fixtures ----------------------------------------

def test_k4_keep_degree_attack_absent():
    k4 = complete(4)
    assert find_k_conn_attack(k4, BudgetRule.fraction_keep_degree("2/5", 1), 1) is None


def test_k5_keep_degree_fixture():
    # oracle-resolved fixture: at alpha = 9/10, k = 2 a certificate exists
    # (drop one vertex, split the remaining K_4 two and two)
    k5 = complete(5)
    rule = BudgetRule.fraction_keep_degree("9/10", 2)
    cut = find_k_conn_attack(k5, rule, 2)
    assert cut is not None
    assert len(cut.separator) == 1
    assert replay_cut(k5, cut, rule)["valid"]
    assert exists_kconn_attack_h(k5, budget_caps(k5, Fraction(9, 10), 2), 2)


def test_c6_kconn_attack_below_half_absent():
    c6 = cycle(6)
    for rule in (BudgetRule.fraction("49/100"),
                 BudgetRule.fraction_keep_degree("49/100", 2)):
        assert find_k_conn_attack(c6, rule, 2) is None


def test_kconn_attack_requires_k_connected_input():
    with pytest.raises(ValueError, match="k-connected"):
        find_k_conn_attack(path(4), BudgetRule.fraction("1/2"), 2)


# -- cherry attack ---------------------------------------------------------

def test_cherry_gadget_end_to_end():
    g = cherry_gadget()
    edge = cherry_attack(g)
    assert edge == (2, 3)
    assert budget_allows(g, [edge], BudgetRule.fraction("1/3"))
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


def test_cherry_skips_all_leaf_centers():
    g = star(4)  # centre has three leaves, no anchor edge to cut
    assert cherry_attack(g) is None


# -- star condition --------------------------------------------------------

def test_star_condition_c6_contiguous_split():
    c6 = cycle(6)
    cut = Cut(frozenset(), frozenset({0, 1, 2}), frozenset({3, 4, 5}))
    assert verify_star_condition(c6, cut, Fraction(0))


def test_star_condition_k4_splits():
    k4 = complete(4)
    lopsided = Cut(frozenset(), frozenset({0}), frozenset({1, 2, 3}))
    balanced = Cut(frozenset(), frozenset({0, 1}), frozenset({2, 3}))
    assert not verify_star_condition(k4, lopsided, Fraction(1, 10))
    assert verify_star_condition(k4, balanced, Fraction(1, 5))


def test_star_condition_rejects_separator():
    cut = Cut(frozenset({0}), frozenset({1}), frozenset({2, 3}))
    with pytest.raises(ValueError, match="separator"):
        verify_star_condition(complete(4), cut, Fraction(1, 10))


def test_star_condition_boundary_ties():
    c6 = cycle(6)
    alternating = Cut(frozenset(), frozenset({0, 2, 4}), frozenset({1, 3, 5}))
    # every vertex crosses 2 of 2 edges: over deg/2, exactly at deg
    assert not verify_star_condition(c6, alternating, Fraction(0))
    assert verify_star_condition(c6, alternating, Fraction(1, 2))
    # K_4 split 2/2 crosses 2 of 3 edges: 2 <= (1/2 + 1/6) * 3 is a tie
    balanced = Cut(frozenset(), frozenset({0, 1}), frozenset({2, 3}))
    assert verify_star_condition(complete(4), balanced, Fraction(1, 6))
    assert not verify_star_condition(complete(4), balanced, Fraction(1, 7))


def test_star_condition_with_isolated_vertices():
    g = build_graph(4, [(0, 1)])  # 2 and 3 isolated
    apart = Cut(frozenset(), frozenset({0, 2}), frozenset({1, 3}))
    together = Cut(frozenset(), frozenset({0, 1, 3}), frozenset({2}))
    assert verify_star_condition(g, together, Fraction(-1, 2))
    assert not verify_star_condition(g, apart, Fraction(0))
    assert verify_star_condition(g, apart, Fraction(1, 2))


@pytest.mark.parametrize("epsilon", [Fraction(-3, 5), Fraction(51, 100), 1, -1])
def test_star_condition_rejects_epsilon_outside_half_interval(epsilon):
    cut = Cut(frozenset(), frozenset({0, 1, 2}), frozenset({3, 4, 5}))
    with pytest.raises(ValueError, match="epsilon"):
        verify_star_condition(cycle(6), cut, epsilon)


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
    assert verify_star_condition(g, cut, epsilon) == star_condition_holds(
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
    for v in cls.tiny:
        cross = sum(1 for u in g.adj[v] if in_b[u] != in_b[v])
        assert 2 * cross <= g.degree(v)


def test_greedy_holds_tiny_vertices_to_half_their_degree():
    # at epsilon = 49/100 a non-tiny vertex may cross up to 0.99 of its
    # edges, a tiny one only half: mark the odd-degree vertices tiny
    g = giant_component(sample_gnm(64, 200, 0))
    tiny = [v for v in range(g.n) if g.degree(v) % 2]
    outcome = greedy_partition_attack(g, manual_cls(g, tiny=tiny), d_threshold=1e9,
                                      epsilon=Fraction(49, 100), seed=0)
    on_b = [int(v in outcome.cut.side_b) for v in range(g.n)]
    over_half = {v for v, c in enumerate(crossing_degrees(g, on_b))
                 if 2 * c > g.degree(v)}
    assert over_half and not over_half & set(tiny)


def test_greedy_satisfied_is_replayable():
    g = sample_gnm(256, 1200, 21)
    cls = classify_vertices(g, 1200 / pair_count(256), 0.5)
    outcome = greedy_partition_attack(g, cls, d_threshold=7.0,
                                      epsilon=Fraction(1, 10), seed=2)
    assert outcome.satisfied == verify_star_condition(g, outcome.cut, Fraction(1, 10))
    if outcome.satisfied:
        # removing H disconnects (certificate is self-verifying); use a
        # generous fraction since the star bound is what the attack targets
        verdict = replay_cut(g, outcome.cut, BudgetRule.fraction("3/5"))
        assert verdict["disconnects"]


def test_greedy_universe_mismatch_rejected():
    g = sample_gnm(16, 40, 1)
    cls = classify_vertices(sample_gnm(17, 40, 1), 0.3, 0.5)
    with pytest.raises(ValueError, match="universe"):
        greedy_partition_attack(g, cls, 5.0, Fraction(1, 10), seed=0)


# -- certificates and serialization ----------------------------------------

def test_every_attack_cut_is_self_verifying():
    rule = BudgetRule.fraction("2/3")
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
            for rule, keep in ((BudgetRule.fraction(alpha), 0),
                               (BudgetRule.fraction_keep_degree(alpha, k), k)):
                verdict = replay_cut(g, cut, rule)
                assert verdict["disconnects"] is True
                assert verdict["h_size"] == sum(counts.values()) // 2
                assert verdict["budget_allowed"] == all(
                    counts[v] <= cap
                    for v, cap in enumerate(budget_caps(g, alpha, keep or None)))
                assert verdict["keep_degree_ok"] == all(
                    g.degree(v) - counts[v] >= keep for v in range(g.n))
                assert verdict["valid"] == verdict["budget_allowed"]
            assert removal_disconnects(g, cut.separator, cut.side_a, cut.side_b)
            checked += 1
    assert checked == 400


def test_cut_json_round_trip():
    g = cycle(6)
    cut = find_disconnecting_attack(g, BudgetRule.fraction("1/2"))
    payload = cut_to_json_dict(g, cut)
    assert set(payload) == {"S", "A", "B", "H", "max_ratio", "satisfied"}
    assert payload["max_ratio"] == "1/2"
    assert cut_from_json_dict(payload) == cut


def test_cut_validation():
    with pytest.raises(ValueError, match="nonempty"):
        Cut(frozenset(), frozenset(), frozenset({1}))
    with pytest.raises(ValueError, match="disjoint"):
        Cut(frozenset({1}), frozenset({1}), frozenset({2}))
    cut = Cut(frozenset(), frozenset({0}), frozenset({1}))
    with pytest.raises(ValueError, match="cover"):
        cut.validate_for(complete(3))


def test_attack_ratios_match_h():
    g = complete(4)
    h = [(0, 1), (0, 2)]
    ratios = attack_ratios(g, h)
    assert ratios[0] == Fraction(2, 3)
    assert ratios[3] == 0
