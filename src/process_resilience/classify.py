"""Degree-based vertex classification (tiny / atypical) and the structural
audits used to sanity-check sampled graphs: concentration tail bounds,
atypical-set size, neighbourhood clumping of tiny/atypical vertices, and
subset edge counts.

All audits are empirical checks on concrete graphs, reported with explicit
witnesses; none of them asserts an asymptotic statement. Thresholds use the
natural logarithm throughout.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .graphs import Graph, VertexSet, ball, connected_components, neighbours_in
from .rng import generator


@dataclass(frozen=True)
class VertexClassification:
    """Tiny/atypical vertex sets of a reference graph at scale n*p.

    tiny: degree < delta*n*p. atyp: degree outside (1 +- delta)*n*p.
    For delta <= 1/2, tiny is a subset of atyp.
    """

    graph: Graph = field(repr=False)
    p: float
    delta: float
    tiny: VertexSet
    atyp: VertexSet

    @property
    def n(self) -> int:
        return self.graph.n


def chernoff_tail_bounds(n: int, p: float, delta: float):
    """(upper, lower) multiplicative tail bounds for Bin(n, p) at 1 +- delta.

    upper = exp(-delta^2 * n * p / 3), lower = exp(-delta^2 * n * p / 2).
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    mu = n * p
    return math.exp(-delta * delta * mu / 3.0), math.exp(-delta * delta * mu / 2.0)


def classify_vertices(g_ref: Graph, p: float, delta: float,
                      restrict_to: Optional[Sequence] = None) -> VertexClassification:
    """Classify vertices of g_ref by degree against the n*p scale.

    ``restrict_to`` intersects both classes with a vertex subset (e.g. the
    vertex set of a giant or core living inside the same universe).
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    np_scale = g_ref.n * p
    lo, hi = (1.0 - delta) * np_scale, (1.0 + delta) * np_scale
    tiny_thr = delta * np_scale
    tiny, atyp = [], []
    for v in range(g_ref.n):
        d = g_ref.degree(v)
        if d < tiny_thr:
            tiny.append(v)
        if d < lo or d > hi:
            atyp.append(v)
    tiny_set, atyp_set = frozenset(tiny), frozenset(atyp)
    if restrict_to is not None:
        keep = frozenset(restrict_to)
        if not all(0 <= v < g_ref.n for v in keep):
            raise ValueError("restrict_to contains out-of-range vertices")
        tiny_set &= keep
        atyp_set &= keep
    return VertexClassification(g_ref, p, delta, tiny_set, atyp_set)


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one structural audit, with explicit witnesses.

    ``holds`` is true iff ``violations`` is empty. ``max_observed`` against
    ``bound`` lets callers read off the empirically minimal feasible
    parameter (e.g. the smallest L or c that would have passed).
    """

    property_id: str
    condition: str  # C1..C4 bucket this audit belongs to
    holds: bool
    max_observed: float
    bound: float
    violations: tuple
    params: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "property": self.property_id,
            "condition": self.condition,
            "holds": self.holds,
            "max_observed": self.max_observed,
            "bound": self.bound,
            "violations": [dict(v) for v in self.violations],
            "params": dict(self.params),
        }


def audit_atyp_size(cls: VertexClassification) -> AuditReport:
    """Check |atyp| <= n / log n (natural log); the C4 audit."""
    n = cls.n
    if n <= 1:
        raise ValueError("atypical-size audit needs n >= 2 (log 1 = 0)")
    bound = n / math.log(n)
    observed = len(cls.atyp)
    violations = ()
    if observed > bound:
        violations = ({"set": "atyp", "measured": observed, "bound": bound},)
    return AuditReport(
        property_id="atyp-size", condition="C4", holds=not violations,
        max_observed=float(observed), bound=bound,
        violations=violations, params={"p": cls.p, "delta": cls.delta, "n": n},
    )


def _tiny_triangles(g: Graph, tiny) -> dict:
    """{(u, v, w): tiny corners} over the triangles u < v < w of g with a
    tiny corner, found from each tiny vertex's neighbour pairs; a triangle
    is found once from each of its tiny corners. A triangle with no tiny
    corner counts 0, so these are all that can violate or set the maximum.
    """
    out = {}
    for t in tiny:
        for a, b in combinations(g.adj[t], 2):
            if g.has_edge(a, b):
                tri = tuple(sorted((t, a, b)))
                out[tri] = out.get(tri, 0) + 1
    return out


def audit_neighbourhoods(g_plus: Graph, cls: VertexClassification, L: int):
    """The three clumping audits on g_plus against classes from the coupled
    reference graph: (C2) at most 2 tiny vertices in any radius-3 ball and at
    most L atypical neighbours of any vertex; (C3) at most 1 tiny vertex per
    triangle, searched from the tiny corners only. Returns the three reports
    in that order.
    """
    if g_plus.n != cls.n:
        raise ValueError(f"vertex universes differ: graph has {g_plus.n}, "
                         f"classification has {cls.n}")
    if L < 0:
        raise ValueError(f"L must be nonnegative, got {L}")
    tiny, atyp = cls.tiny, cls.atyp
    params = {"p": cls.p, "delta": cls.delta, "L": L}

    # distance is symmetric, so v's punctured radius-3 ball holds tiny t
    # exactly when the one from t holds v: search from the tiny vertices only
    ball_counts = [0] * g_plus.n
    for t in tiny:
        for v in ball(g_plus, t, 3):
            ball_counts[v] += 1
    ball_viol = [{"vertex": v, "measured": cnt, "bound": 2}
                 for v, cnt in enumerate(ball_counts) if cnt > 2]
    reports = [AuditReport(
        property_id="tiny-3ball", condition="C2", holds=not ball_viol,
        max_observed=float(max(ball_counts, default=0)), bound=2.0,
        violations=tuple(ball_viol), params=params,
    )]

    nbr_counts = neighbours_in(g_plus, atyp)
    nbr_viol = [{"vertex": v, "measured": cnt, "bound": L}
                for v, cnt in enumerate(nbr_counts) if cnt > L]
    reports.append(AuditReport(
        property_id="atyp-neighbourhood", condition="C2", holds=not nbr_viol,
        max_observed=float(max(nbr_counts, default=0)), bound=float(L),
        violations=tuple(nbr_viol), params=params,
    ))

    tris = _tiny_triangles(g_plus, tiny)
    tri_viol = [{"triangle": list(tri), "measured": cnt, "bound": 1}
                for tri, cnt in sorted(tris.items()) if cnt > 1]
    reports.append(AuditReport(
        property_id="triangle-tiny", condition="C3", holds=not tri_viol,
        max_observed=float(max(tris.values(), default=0)), bound=1.0,
        violations=tuple(tri_viol), params=params,
    ))
    return reports


def _edge_count_within(eu: np.ndarray, ev: np.ndarray, mask: np.ndarray) -> int:
    return int((mask[eu] & mask[ev]).sum())


def audit_edge_counts(g: Graph, p: float, c: float, subset_trials: int,
                      seed: int) -> AuditReport:
    """Two-sided subset edge-count audit (C1): for the subsets checked,
    |e(X) - C(|X|,2) p| <= c |X| sqrt(n p).

    Quantifying over all subsets is infeasible; this checks (a) all subsets
    of size <= 4 — analytically when the bound is slack enough that the
    extreme counts 0 and C(|X|,2) both pass, exhaustively when n is small,
    by sampling otherwise — (b) ``subset_trials`` seeded random subsets, and
    (c) structured extremes: every component, the giant, and the distinct
    closed neighbourhoods of the five top-degree vertices. Each subset is
    checked once per kind, and listed, sorted, only when it violates. A
    sound-but-incomplete check by design.
    """
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p}")
    if subset_trials < 0:
        raise ValueError(f"subset_trials must be nonnegative, got {subset_trials}")
    n = g.n
    scale = math.sqrt(n * p)
    params = {"p": p, "c": c, "subset_trials": subset_trials, "seed": seed}

    violations = []
    max_norm = 0.0

    def check(label, subset, count):
        # subset: the members in any order; sorted only for a witness
        nonlocal max_norm
        s = len(subset)
        if s < 2 or scale == 0.0:
            return
        expect = s * (s - 1) / 2 * p
        norm = abs(count - expect) / (s * scale)
        if norm > max_norm:
            max_norm = norm
        if norm > c:
            violations.append({"subset": sorted(map(int, subset)), "kind": label,
                               "measured": count, "expected": expect,
                               "bound": c * s * scale})

    # (a) subsets of size <= 4
    def small_sizes_pass_analytically() -> bool:
        if scale == 0.0:
            return p == 0.0
        for s in (2, 3, 4):
            pairs = s * (s - 1) / 2
            slack = c * s * scale
            if pairs * (1.0 - p) > slack or pairs * p > slack:
                return False
        return True

    if small_sizes_pass_analytically():
        smalls_mode = "analytic"
    elif n <= 40:
        smalls_mode = "exhaustive"
        adj = [set(a) for a in g.adj]
        for s in (2, 3, 4):
            for X in combinations(range(n), s):
                cnt = sum(1 for i in range(len(X)) for j in range(i + 1, len(X))
                          if X[j] in adj[X[i]])
                check("small", X, cnt)
    else:
        smalls_mode = "sampled"  # folded into the random-subset stage below

    eu, ev = g._ends

    # (b) seeded random subsets of random sizes
    rng = generator(seed)
    lo_size = 2 if smalls_mode == "sampled" else 5
    # below lo_size the one subset left to draw is V itself: check it once
    for _ in range(subset_trials if n >= lo_size else min(subset_trials, 1)):
        s = int(rng.integers(lo_size, n + 1)) if n >= lo_size else n
        idx = rng.permutation(n)[:s]
        mask = np.zeros(n, dtype=bool)
        mask[idx] = True
        check("random", idx, _edge_count_within(eu, ev, mask))

    # (c) structured extremes; a component holds every edge at its vertices
    deg = g.degrees
    for i, comp in enumerate(connected_components(g)):
        check("giant" if i == 0 else "component", comp,
              sum(map(deg.__getitem__, comp)) // 2)
    top = heapq.nsmallest(5, range(n), key=lambda v: (-deg[v], v))
    # twins share a closed neighbourhood: check each distinct one once
    for closed in dict.fromkeys(frozenset((v, *g.adj[v])) for v in top):
        mask = np.zeros(n, dtype=bool)
        mask[list(closed)] = True
        check("neighbourhood", closed, _edge_count_within(eu, ev, mask))

    violations.sort(key=lambda rec: rec["subset"])
    return AuditReport(
        property_id="edge-counts", condition="C1", holds=not violations,
        max_observed=max_norm, bound=float(c),
        violations=tuple(violations),
        params={**params, "smalls_mode": smalls_mode},
    )
