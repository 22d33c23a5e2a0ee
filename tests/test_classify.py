import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from process_resilience.classify import (
    _tiny_ball_counts,
    _tiny_triangles,
    audit_atyp_size,
    audit_edge_counts,
    audit_neighbourhoods,
    classify_vertices,
)
from process_resilience.graphs import ball, build_graph, neighbours_in
from process_resilience.process import pair_count, sample_gnm, sample_coupled, sample_gnp
from process_resilience.resilience import _equipartition_d_set
from process_resilience.rng import derive_seed

from conftest import complete, cycle, manual_cls, path, star
from oracles import (adjacency_sets, audit_outcome, cached_views, degree_classes,
                     recount_audits, small_subset_counts, tiny_ball_counts,
                     tiny_triangles)


# -- classification --------------------------------------------------------

def test_classify_star():
    # K_{1,5}: scale np = 3, delta = 0.5: leaves (deg 1) are tiny, and every
    # vertex is atypical (leaves below 1.5, the centre's 5 above 4.5)
    cls = classify_vertices(star(6), 0.5, 0.5)
    assert cls.tiny == frozenset(range(1, 6))
    assert cls.atyp == frozenset(range(6))


def test_classify_regular_graph_all_typical():
    cls = classify_vertices(complete(4), 0.75, 0.1)  # np = 3 = every degree
    assert cls.tiny == frozenset()
    assert cls.atyp == frozenset()


def test_classify_restriction():
    cls = classify_vertices(star(6), 0.5, 0.5, restrict_to={0, 1, 2})
    assert cls.tiny == frozenset({1, 2})
    assert cls.atyp == frozenset({0, 1, 2})
    with pytest.raises(ValueError):
        classify_vertices(star(6), 0.5, 0.5, restrict_to={7})


@pytest.mark.parametrize("subset", [{1.5, 2}, [True], {-1}, {7}])
def test_classify_rejects_a_subset_member_that_is_not_a_vertex(subset):
    # a float, a bool, -1 and n are not vertices of the 6-vertex star
    with pytest.raises(ValueError, match=r"integers in \[0, 6\)"):
        classify_vertices(star(6), 0.5, 0.5, restrict_to=subset)


def test_classify_subset_array_gives_python_int_members():
    cls = classify_vertices(star(6), 0.5, 0.5, restrict_to=np.array([0, 1, 2]))
    assert cls == classify_vertices(star(6), 0.5, 0.5, restrict_to={0, 1, 2})
    assert all(type(v) is int for v in cls.tiny | cls.atyp)
    assert json.dumps(sorted(cls.atyp)) == "[0, 1, 2]"


@pytest.mark.parametrize("p", [-0.5, 1.5, math.nan, math.inf, -math.inf])
def test_classify_rejects_p_outside_unit_interval(p):
    # p = -0.5 would mark every vertex atypical, and NaN leave both classes
    # empty, without a word
    with pytest.raises(ValueError, match=r"p must be a real number in \[0, 1\]"):
        classify_vertices(star(6), p, 0.5)


def test_classify_accepts_p_at_both_ends():
    # np = 0: no degree is below 0, every positive one is above the band
    assert classify_vertices(star(6), 0.0, 0.5).atyp == frozenset(range(6))
    # np = 4: the K_4 degree 3 lies inside the band (2, 6)
    assert classify_vertices(complete(4), 1.0, 0.5).atyp == frozenset()


def test_classification_masks_are_cached_read_only_and_not_fields():
    cls = classify_vertices(star(6), 0.5, 0.5, restrict_to={0, 1, 2})
    plain = repr(cls), hash(cls)
    assert cls.tiny_mask.tolist() == [False, True, True, False, False, False]
    assert cls.atyp_mask.tolist() == [True, True, True, False, False, False]
    assert cls.tiny_mask is cls.tiny_mask and not cls.atyp_mask.flags.writeable
    assert (repr(cls), hash(cls)) == plain and "mask" not in repr(cls)
    assert cls == classify_vertices(star(6), 0.5, 0.5, restrict_to={0, 1, 2})


def test_classify_idempotent():
    g = sample_gnp(64, 0.1, 3)
    a = classify_vertices(g, 0.1, 0.3)
    b = classify_vertices(g, 0.1, 0.3)
    assert a.tiny == b.tiny and a.atyp == b.atyp


@given(st.integers(0, 10 ** 6), st.floats(0.05, 0.5))
@settings(max_examples=40, deadline=None)
def test_tiny_subset_of_atyp_for_small_delta(seed, delta):
    g = sample_gnp(30, 0.2, seed)
    cls = classify_vertices(g, 0.2, delta)
    assert cls.tiny <= cls.atyp


def test_tiny_usually_empty_above_connectivity_scale():
    # At p = 1.2 log n / n and small delta, tiny means isolated, and the
    # expected number of isolated vertices is n^{-0.2} << 1.
    n = 1024
    p = 1.2 * math.log(n) / n
    empty = sum(
        not classify_vertices(sample_gnp(n, p, seed), p, 0.05).tiny
        for seed in range(40))
    assert empty >= 24  # ~78% expected


# -- atypical-size audit ---------------------------------------------------

def test_atyp_size_empty_holds():
    rep = audit_atyp_size(classify_vertices(complete(4), 0.75, 0.1))
    assert rep.holds and not rep.violations and rep.condition == "C4"


def test_atyp_size_fails_with_witness():
    cls = classify_vertices(star(8), 0.5, 0.05)  # np = 4: all 8 atypical
    rep = audit_atyp_size(cls)
    assert not rep.holds
    assert rep.max_observed == 8
    assert rep.bound == pytest.approx(8 / math.log(8))
    assert rep.violations[0]["measured"] == 8


def test_atyp_size_rejects_single_vertex():
    with pytest.raises(ValueError):
        audit_atyp_size(classify_vertices(build_graph(1, []), 0.5, 0.1))


def test_atyp_size_monte_carlo():
    # p = 2 log n/(3n) and a wide typical band: the n/log n bound holds in
    # nearly every sample at this scale (pilot-calibrated parameters).
    n = 4096
    p = 2 * math.log(n) / (3 * n)
    holds = sum(
        audit_atyp_size(classify_vertices(sample_gnp(n, p, seed), p, 0.9)).holds
        for seed in range(50))
    assert holds >= 48


# -- neighbourhood audits --------------------------------------------------

def test_neighbourhood_audits_vacuous_without_tiny():
    g = complete(5)
    ball_rep, nbr_rep, tri_rep = audit_neighbourhoods(g, manual_cls(g), 5)
    assert ball_rep.holds and nbr_rep.holds and tri_rep.holds


def test_tiny_ball_boundary_and_violation():
    # path a-c-b: both endpoints tiny gives |ball3(c) & tiny| = 2 (boundary);
    # a third tiny pendant on c breaks the bound with c as witness
    g = build_graph(3, [(0, 2), (1, 2)])
    ball_rep, _, _ = audit_neighbourhoods(g, manual_cls(g, tiny={0, 1}), 5)
    assert ball_rep.holds and ball_rep.max_observed == 2

    g2 = build_graph(4, [(0, 2), (1, 2), (3, 2)])
    ball_rep, _, _ = audit_neighbourhoods(g2, manual_cls(g2, tiny={0, 1, 3}), 5)
    assert not ball_rep.holds
    assert {"vertex": 2, "measured": 3, "bound": 2} in [dict(v) for v in ball_rep.violations]


@given(st.integers(0, 2 ** 31), st.integers(1, 30), st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_tiny_ball_audit_matches_ball_definition(seed, n, m):
    # the audit searches from tiny vertices only; the definition counts the
    # tiny vertices in every vertex's punctured radius-3 ball
    g = sample_gnm(n, min(m, n * (n - 1) // 2), seed)
    tiny = {v for v in range(n) if (v * 2654435761 + seed) % 3 == 0}
    ball_rep, _, _ = audit_neighbourhoods(g, manual_cls(g, tiny=tiny), 5)
    counts = [len(ball(g, v, 3) & tiny) for v in range(n)]
    assert ball_rep.max_observed == max(counts)
    assert [dict(v) for v in ball_rep.violations] == [
        {"vertex": v, "measured": c, "bound": 2} for v, c in enumerate(counts) if c > 2]


def test_triangle_with_two_tiny_fails():
    g = complete(3)
    _, _, tri_rep = audit_neighbourhoods(g, manual_cls(g, tiny={0, 1}), 5)
    assert not tri_rep.holds
    assert tri_rep.violations[0]["triangle"] == [0, 1, 2]


def test_atyp_neighbourhood_bound():
    g = star(8)
    _, nbr_rep, _ = audit_neighbourhoods(g, manual_cls(g, atyp=set(range(1, 8))), 3)
    assert not nbr_rep.holds
    assert nbr_rep.max_observed == 7  # centre sees all seven atypicals


def test_universe_mismatch_rejected():
    g = complete(4)
    with pytest.raises(ValueError, match="universe"):
        audit_neighbourhoods(complete(5), manual_cls(g), 3)


def test_ball_bound_excludes_all_tiny_two_paths():
    # wherever the 3-ball audit holds, no path u-w-x with all three tiny
    # exists in the graph
    for seed in range(20):
        coupled = sample_coupled(64, 0.05, 0.01, seed)
        cls = classify_vertices(coupled.g_minus, 0.05, 0.5)
        ball_rep, _, _ = audit_neighbourhoods(coupled.g_plus, cls, 10)
        if not ball_rep.holds:
            continue
        adj = adjacency_sets(coupled.g_plus)
        for w in cls.tiny:
            tiny_nbrs = [u for u in adj[w] if u in cls.tiny]
            assert len(tiny_nbrs) <= 1, (seed, w)


# -- recounts in oracles, checked against the library -----------------------

def _audit_reports(g_plus, cls, L):
    return [*audit_neighbourhoods(g_plus, cls, L), audit_atyp_size(cls)]


@pytest.mark.parametrize("g, p, delta", [
    (star(6), 0.5, 0.5),
    (complete(4), 0.75, 0.1),
    (build_graph(5, [(0, 1), (1, 2), (3, 4)]), 0.5, 0.5),
    (path(6), 0.4, 0.5),
])
def test_degree_classes_match_library(g, p, delta):
    cls = classify_vertices(g, p, delta)
    assert degree_classes(g, p, delta) == (cls.tiny, cls.atyp)


def test_typical_band_without_integer_makes_every_vertex_atypical():
    # cycle(8) at np = 2.5, delta = 0.05: the closed band [2.375, 2.625]
    # holds no integer, so even a regular graph has ATYP = V
    g, p, delta = cycle(8), 0.3125, 0.05
    lo, hi = (1 - delta) * g.n * p, (1 + delta) * g.n * p
    assert math.floor(hi) < lo
    tiny, atyp = degree_classes(g, p, delta)
    assert tiny == frozenset() and atyp == frozenset(range(8))
    cls = classify_vertices(g, p, delta)
    assert cls.atyp == atyp
    rep = audit_atyp_size(cls)
    assert not rep.holds and rep.violations[0]["measured"] == g.n
    assert audit_outcome(rep) == recount_audits(g, tiny, atyp, 3)["atyp-size"]


def test_tiny_ball_counts_by_hand():
    # path 0-1-2-3-4-5 with tiny {0, 3, 4, 5}: vertex 0 sees 3 at distance
    # 3 but not 4 or 5; vertex 2 sees all four; a tiny vertex never counts
    # itself
    counts = tiny_ball_counts(path(6), {0, 3, 4, 5})
    assert counts == [1, 3, 4, 3, 2, 2]


def test_tiny_triangles_by_hand():
    # K_4 with tiny {0, 1, 2}: every triangle touches a tiny vertex
    assert tiny_triangles(complete(4), {0, 1, 2}) == {
        (0, 1, 2): 3, (0, 1, 3): 2, (0, 2, 3): 2, (1, 2, 3): 2}
    # a pendant tiny vertex lies on no triangle
    g = build_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert tiny_triangles(g, {3}) == {}
    assert tiny_triangles(g, {0}) == {(0, 1, 2): 1}


@st.composite
def _tiny_cases(draw, max_n=40):
    """(n, pairs, tiny, radius): a sparse G(n, m) graph's edges, any tiny
    set and a ball radius."""
    n = draw(st.integers(0, max_n))
    m = draw(st.integers(0, min(pair_count(n), 3 * n)))
    pairs = sample_gnm(n, m, draw(st.integers(0, 2 ** 32))).edges
    tiny = draw(st.frozensets(st.integers(0, n - 1))) if n else frozenset()
    return n, pairs, tiny, draw(st.integers(1, 5))


_CYCLE_70 = tuple((i, (i + 1) % 70) for i in range(70))
_GNM_140 = sample_gnm(140, 300, 0).edges


@given(_tiny_cases())
@settings(max_examples=300, deadline=None)
@example((8, ((0, 1), (1, 2), (2, 3)), frozenset(), 3))      # no tiny vertex
@example((70, _CYCLE_70, frozenset(range(65)), 3))           # two words
@example((70, _CYCLE_70, frozenset(range(70)), 1))
@example((140, _GNM_140, frozenset(range(129)), 3))          # three words
@example((140, _GNM_140, frozenset(range(140)), 2))
@example((5, ((0, 1), (1, 2), (2, 3)), frozenset({0, 4}), 3))  # isolated tiny
@example((0, (), frozenset(), 3))
@example((1, (), frozenset({0}), 3))
@example((2, ((0, 1),), frozenset({0, 1}), 1))
@example((2, (), frozenset({0, 1}), 3))
# a triangle with three tiny corners and a pendant
@example((4, ((0, 1), (0, 2), (1, 2), (2, 3)), frozenset({0, 1, 2}), 3))
# radius beyond the diameter of the path
@example((5, ((0, 1), (1, 2), (2, 3), (3, 4)), frozenset({0, 2, 4}), 9))
def test_array_balls_and_triangles_match_the_pair_recounts(case):
    n, pairs, tiny, radius = case
    g = build_graph(n, pairs)
    # the audit passes the ascending vertices of the tiny mask; the results
    # do not depend on their order
    ascending = np.array(sorted(tiny), dtype=np.int64)
    for t in (ascending, np.random.default_rng(n).permutation(ascending)):
        assert _tiny_ball_counts(g, t, radius).tolist() == tiny_ball_counts(g, tiny, radius)
        tris, corners = _tiny_triangles(g, t)
        assert tris.shape == (len(corners), 3)
        found = list(map(tuple, tris.tolist()))
        assert found == sorted(tiny_triangles(g, tiny))
        assert dict(zip(found, corners.tolist())) == tiny_triangles(g, tiny)
    assert cached_views(g) <= {"degree_array"}


@pytest.mark.parametrize("seed", [1, 2])
def test_audit_pipeline_builds_no_adjacency_rows(seed):
    # one audit trial's calls at the criterion-6 parameters: the samples,
    # the classes, the three neighbourhood audits, the edge-count audit and
    # the D-set all read the CSR arrays
    n = 4096
    p0 = 1.2 * math.log(n) / (3 * n)
    coupled = sample_coupled(n, p0, 0.5 * p0, seed)
    cls = classify_vertices(coupled.g_minus, p0, 0.05)
    audit_neighbourhoods(coupled.g_plus, cls, 30)
    audit_atyp_size(cls)
    audit_edge_counts(coupled.g_plus, coupled.p1, 2.0, 200, derive_seed(seed, 1))
    _, d_set = _equipartition_d_set(coupled.g_plus, 0.55 * n * coupled.p1,
                                    derive_seed(seed, 2))
    neighbours_in(coupled.g_plus, d_set)
    assert cached_views(coupled.g_plus) <= {"degree_array"}
    assert cached_views(coupled.g_minus) <= {"degree_array"}


_HAND_BUILT = [
    ("vacuous K5", complete(5), (), (), 5),
    ("path boundary", build_graph(3, [(0, 2), (1, 2)]), {0, 1}, (), 5),
    ("pendant breaks ball", build_graph(4, [(0, 2), (1, 2), (3, 2)]),
     {0, 1, 3}, (), 5),
    ("long path", path(6), {0, 3, 4, 5}, {1, 2}, 1),
    ("triangle two tiny", complete(3), {0, 1}, (), 5),
    ("triangle one tiny", complete(3), {0}, {0, 1, 2}, 1),
    ("K4 three tiny", complete(4), {0, 1, 2}, {3}, 0),
    ("star atypical leaves", star(8), (), set(range(1, 8)), 3),
    ("star all atypical", star(8), {1, 2, 3}, set(range(8)), 7),
    ("triangles without a tiny corner",
     build_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)]),
     {4}, {0}, 2),
    ("edgeless", build_graph(5, []), {0, 1}, {0, 1, 2}, 0),
    ("n = 2", build_graph(2, [(0, 1)]), {0}, {0, 1}, 0),
    ("tiny = V", complete(4), set(range(4)), set(range(4)), 2),
    # vertex 1's triangle is found before vertex 2's, but sorts after it
    ("triangles out of discovery order",
     build_graph(7, [(1, 5), (1, 6), (5, 6), (0, 2), (0, 3), (2, 3)]),
     {1, 2, 3, 5}, (), 1),
]


@pytest.mark.parametrize("name, g, tiny, atyp, L", _HAND_BUILT,
                         ids=[case[0] for case in _HAND_BUILT])
def test_recount_matches_library_on_hand_built_graphs(name, g, tiny, atyp, L):
    cls = manual_cls(g, tiny=tiny, atyp=atyp)
    expected = recount_audits(g, cls.tiny, cls.atyp, L)
    reports = _audit_reports(g, cls, L)
    assert [rep.property_id for rep in reports] == list(expected)
    for rep in reports:
        assert audit_outcome(rep) == expected[rep.property_id], rep.property_id


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n, p0, p_prime, delta, L", [
    (80, 0.06, 0.03, 0.5, 4),     # tiny triangles, balls nearly all violated
    (300, 0.01, 0.005, 0.3, 5),   # isolated tiny vertices, some balls fail
])
def test_recount_matches_library_on_coupled_samples(n, p0, p_prime, delta,
                                                    L, seed):
    coupled = sample_coupled(n, p0, p_prime, seed)
    cls = classify_vertices(coupled.g_minus, p0, delta)
    tiny, atyp = degree_classes(coupled.g_minus, p0, delta)
    assert (cls.tiny, cls.atyp) == (tiny, atyp)
    expected = recount_audits(coupled.g_plus, tiny, atyp, L)
    for rep in _audit_reports(coupled.g_plus, cls, L):
        assert audit_outcome(rep) == expected[rep.property_id], rep.property_id


# -- edge-count audit ------------------------------------------------------

def test_edge_counts_saturated_complete_graph():
    g = complete(12)
    rep = audit_edge_counts(g, 1.0 - 1e-9, c=2.0, subset_trials=50, seed=1)
    assert rep.holds
    assert rep.max_observed == pytest.approx(0.0, abs=1e-3)


def test_edge_counts_singletons_pass_any_c():
    g = build_graph(3, [(0, 1)])
    rep = audit_edge_counts(g, 0.5, c=0.001, subset_trials=0, seed=0)
    # only multi-vertex subsets matter; the full-vertex 'component' subsets
    # are the only candidates here
    assert isinstance(rep.holds, bool)


def test_edge_counts_monte_carlo_and_determinism():
    n = 512
    p = math.log(n) / n
    reps = [audit_edge_counts(sample_gnp(n, p, seed), p, c=2.0,
                              subset_trials=300, seed=77)
            for seed in range(20)]
    assert sum(rep.holds for rep in reps) >= 19
    again = audit_edge_counts(sample_gnp(n, p, 0), p, c=2.0,
                              subset_trials=300, seed=77)
    assert again.to_json_dict() == reps[0].to_json_dict()


def test_edge_count_violations_are_recheckable():
    # tight c forces violations; every witness must recompute exactly
    g = complete(10)
    rep = audit_edge_counts(g, 0.2, c=0.5, subset_trials=100, seed=5)
    assert not rep.holds
    adj = adjacency_sets(g)
    for wit in rep.violations:
        X = wit["subset"]
        cnt = sum(1 for i in X for j in X if i < j and j in adj[i])
        assert cnt == wit["measured"]
        assert abs(cnt - wit["expected"]) > wit["bound"] - 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_edge_count_witnesses_are_distinct_below_five_vertices(n):
    # every subset of size >= 2 is checked exhaustively, each once per kind;
    # V is the one subset the random stage can draw, so it is checked once
    p, c = 0.01, 0.01
    scale = math.sqrt(n * p)

    def norm(g, X):
        adj = adjacency_sets(g)
        cnt = sum(1 for i in X for j in X if i < j and j in adj[i])
        s = len(X)
        return abs(cnt - s * (s - 1) / 2 * p) / (s * scale)

    for g in (complete(n), path(n), star(n), build_graph(n, [])):
        subsets = [X for s in range(2, n + 1) for X in combinations(range(n), s)]
        for trials in (0, 3):
            rep = audit_edge_counts(g, p, c=c, subset_trials=trials, seed=0)
            assert rep.params["smalls_mode"] == "exhaustive"
            keys = [(v["kind"], tuple(v["subset"])) for v in rep.violations]
            assert len(keys) == len(set(keys))
            assert sorted(k for k in keys if k[0] == "small") == sorted(
                ("small", X) for X in subsets if norm(g, X) > c)
            assert [k for k in keys if k[0] == "random"] == (
                [("random", tuple(range(n)))]
                if trials and norm(g, range(n)) > c else [])
            assert rep.max_observed == pytest.approx(
                max(norm(g, X) for X in subsets), rel=1e-12)


@pytest.mark.parametrize("n, p, c, seed", [
    (13, 0.3, 0.2, 1), (25, 0.5, 0.1, 2), (40, 0.2, 0.2, 1), (40, 0.9, 0.05, 3),
    # no small subset violates, and the stage's maximum is the report's
    (40, 0.1, 0.6, 1),
])
def test_exhaustive_small_subsets_match_pair_recount(n, p, c, seed):
    g = sample_gnp(n, p, seed)
    rep = audit_edge_counts(g, p, c=c, subset_trials=0, seed=0)
    assert rep.params["smalls_mode"] == "exhaustive"
    scale = math.sqrt(n * p)
    expected, top = [], 0.0
    for X, cnt in small_subset_counts(g):
        s = len(X)
        expect = s * (s - 1) / 2 * p
        norm = abs(cnt - expect) / (s * scale)
        top = max(top, norm)
        if norm > c:
            expected.append({"subset": list(X), "kind": "small", "measured": cnt,
                             "expected": expect, "bound": c * s * scale})
    assert [v for v in rep.violations if v["kind"] == "small"] == sorted(
        expected, key=lambda v: v["subset"])
    assert rep.max_observed >= top


def test_top_degree_ties_pick_the_five_smallest_vertices():
    # ten vertices share the maximum degree 3; the five first in
    # (-degree, vertex) order are 0, 1, 2, 3 and 5, and 3 and 5 are twins
    # in a K_4, so four distinct closed neighbourhoods are checked
    ring = [0, 1, 2, 4, 6, 7, 9, 11]
    edges = [(3, 5), (3, 8), (3, 10), (5, 8), (5, 10), (8, 10),
             *zip(ring, ring[1:] + ring[:1]), (0, 6), (1, 9), (2, 11)]
    g = build_graph(12, edges)
    assert g.degree_array.tolist().count(3) == 10
    rep = audit_edge_counts(g, 0.05, c=0.01, subset_trials=0, seed=0)
    bound = 0.01 * 4 * math.sqrt(12 * 0.05)
    assert [v for v in rep.violations if v["kind"] == "neighbourhood"] == [
        {"subset": subset, "kind": "neighbourhood", "measured": measured,
         "expected": 6 * 0.05, "bound": bound}
        for subset, measured in (([0, 1, 2, 9], 3), ([0, 1, 6, 11], 3),
                                 ([1, 2, 4, 11], 3), ([3, 5, 8, 10], 6))]


def test_audits_reject_negative_counts():
    g = complete(5)
    with pytest.raises(ValueError, match="subset_trials must be an integer >= 0, got -1"):
        audit_edge_counts(g, 0.5, c=1.0, subset_trials=-1, seed=0)
    with pytest.raises(ValueError, match="L must be an integer >= 0, got -1"):
        audit_neighbourhoods(g, manual_cls(g), -1)
    assert audit_edge_counts(g, 0.5, c=1.0, subset_trials=0, seed=0).holds
    assert len(audit_neighbourhoods(g, manual_cls(g), 0)) == 3


def test_audit_report_json_shape():
    g = complete(4)
    rep = audit_atyp_size(classify_vertices(g, 0.75, 0.1))
    payload = rep.to_json_dict()
    assert json.loads(json.dumps(payload)) == payload
    assert set(payload) == {"property", "condition", "holds", "max_observed",
                            "bound", "violations", "params"}
