"""Degree-based vertex classification (tiny / atypical) and the structural
audits used to sanity-check sampled graphs: atypical-set size,
neighbourhood clumping of tiny/atypical vertices, and subset edge counts.

All audits are empirical checks on concrete graphs, reported with explicit
witnesses; none of them asserts an asymptotic statement. Thresholds use the
natural logarithm throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .graphs import (Graph, _components, _integer, _is_edge, _real,
                     _row_positions, _row_walk, _spans, _vertex_mask,
                     neighbours_in)
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
    tiny: frozenset
    atyp: frozenset

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def tiny_mask(self) -> np.ndarray:
        """Read-only boolean mask of ``tiny`` over 0..n-1."""
        return _vertex_mask(self.n, self.tiny)

    @cached_property
    def atyp_mask(self) -> np.ndarray:
        """Read-only boolean mask of ``atyp`` over 0..n-1."""
        return _vertex_mask(self.n, self.atyp)


def classify_vertices(g_ref: Graph, p: float, delta: float,
                      restrict_to: Optional[Sequence] = None) -> VertexClassification:
    """Classify vertices of g_ref by degree against the n*p scale.

    ``restrict_to`` intersects both classes with a vertex subset (e.g. the
    vertex set of a giant or core living inside the same universe), read
    as ``_vertex_mask`` reads one: ValueError for a member that is not an
    integer in [0, n).
    """
    _real("p", p, 0, 1)
    _real("delta", delta, 0, 1, "()")
    np_scale = g_ref.n * p
    lo, hi = (1.0 - delta) * np_scale, (1.0 + delta) * np_scale
    tiny_thr = delta * np_scale
    deg = g_ref.degree_array
    tiny, atyp = deg < tiny_thr, (deg < lo) | (deg > hi)
    if restrict_to is not None:
        keep = _vertex_mask(g_ref.n, restrict_to)
        tiny, atyp = tiny & keep, atyp & keep
    tiny, atyp = (frozenset(np.flatnonzero(m).tolist()) for m in (tiny, atyp))
    return VertexClassification(g_ref, p, delta, tiny, atyp)


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
    return _count_audit("atyp-size", "C4", "set", ["atyp"], [len(cls.atyp)],
                        n / math.log(n), {"p": cls.p, "delta": cls.delta, "n": n})


def _tiny_ball_counts(g: Graph, tiny: np.ndarray, radius: int) -> np.ndarray:
    """counts[v]: the tiny vertices t != v within distance ``radius`` of v,
    for ``tiny`` an int64 array of distinct vertices in any order.

    Distance is symmetric, so v's punctured ball holds t exactly when t's
    holds v. Bit j of reach[v] marks the j-th tiny vertex of one 64-bit
    word; each of ``radius`` rounds ORs the marks every marked vertex held
    at the start of the round into its CSR row, so reach[v] ends up
    marking the word's tiny vertices within ``radius`` of v, v itself
    included when tiny, and ``bitwise_count`` adds them up. A round reads
    only the rows of marked vertices, and one word per pass keeps the
    extra memory O(m).
    """
    counts = np.zeros(g.n, dtype=np.int64)
    for w in range(-(-len(tiny) // 64)):
        word = tiny[64 * w:64 * (w + 1)]
        reach = np.zeros(g.n, dtype=np.uint64)
        reach[word] = np.left_shift(np.uint64(1), np.arange(len(word), dtype=np.uint64))
        for _ in range(radius):
            marked = np.flatnonzero(reach)
            marks = np.repeat(reach[marked], g.degree_array[marked])
            np.bitwise_or.at(reach, g.indices[_row_positions(g, marked)], marks)
        counts += np.bitwise_count(reach)
    counts[tiny] -= 1
    return counts


def _tiny_triangles(g: Graph, t: np.ndarray) -> tuple:
    """(tris, corners): the triangles u < v < w of g with a tiny corner, as
    the ascending rows of a (k, 3) array, and the tiny corners of each;
    ``t`` is an int64 array of the distinct tiny vertices in any order.

    Every pair a < b of a tiny vertex's CSR row is looked up among the
    sorted edge keys u n + v; a triangle is found once from each of its
    tiny corners, so the times it is found count them. A triangle with no
    tiny corner counts 0, so these are all that can violate or set the
    maximum.
    """
    first = _row_positions(g, t)
    # the number of later entries in the same row, then their positions
    later = np.repeat(g.indptr[t + 1], g.degree_array[t]) - first - 1
    a, b = g.indices[np.repeat(first, later)], g.indices[_spans(first + 1, later)]
    hit = _is_edge(g, a, b)
    corner = np.repeat(np.repeat(t, g.degree_array[t]), later)
    tris = np.sort(np.column_stack((corner[hit], a[hit], b[hit])), axis=1)
    tris = tris[np.lexsort(tris.T[::-1])]
    new = np.flatnonzero(np.any(np.diff(tris, axis=0, prepend=-1) != 0, axis=1))
    return tris[new], np.diff(new, append=len(tris))


def audit_neighbourhoods(g_plus: Graph, cls: VertexClassification, L: int):
    """The three clumping audits on g_plus against classes from the coupled
    reference graph: (C2) at most 2 tiny vertices in any radius-3 ball and at
    most L atypical neighbours of any vertex; (C3) at most 1 tiny vertex per
    triangle, searched from the tiny corners only. Returns the three reports
    in that order. All three read the CSR arrays; the tiny class enters
    as the vertex array of its mask.
    """
    if g_plus.n != cls.n:
        raise ValueError(f"vertex universes differ: graph has {g_plus.n}, "
                         f"classification has {cls.n}")
    L = _integer("L", L, 0)
    params = {"p": cls.p, "delta": cls.delta, "L": L}
    vertices = range(g_plus.n)
    tiny = np.flatnonzero(cls.tiny_mask)
    tris, corners = _tiny_triangles(g_plus, tiny)
    return [
        _count_audit("tiny-3ball", "C2", "vertex", vertices,
                     _tiny_ball_counts(g_plus, tiny, 3), 2, params),
        _count_audit("atyp-neighbourhood", "C2", "vertex", vertices,
                     neighbours_in(g_plus, cls.atyp_mask), L, params),
        _count_audit("triangle-tiny", "C3", "triangle", tris.tolist(), corners,
                     1, params),
    ]


def _count_audit(property_id: str, condition: str, witness: str, witnesses,
                 counts, bound, params: dict) -> AuditReport:
    """The audit that counts[i], measured at witnesses[i], is at most bound
    for every i; each count above it is a violation."""
    counts = np.asarray(counts, dtype=np.int64)
    over = np.flatnonzero(counts > bound).tolist()
    violations = tuple({witness: witnesses[i], "measured": cnt, "bound": bound}
                       for i, cnt in zip(over, counts[over].tolist()))
    return AuditReport(
        property_id=property_id, condition=condition, holds=not violations,
        max_observed=float(counts.max(initial=0)), bound=float(bound),
        violations=violations, params=params,
    )


def _edge_count_within(g: Graph, members) -> int:
    """The edges of g with both ends among ``members``."""
    mask = np.zeros(g.n, dtype=bool)
    mask[members] = True
    eu, ev = g._ends
    return int(np.count_nonzero(mask[eu] & mask[ev]))


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
    _real("p", p, 0, 1)
    _real("c", c, 0, math.inf, "(]")
    subset_trials = _integer("subset_trials", subset_trials, 0)
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
        eu, ev = g._ends
        matrix = np.zeros((n, n), dtype=np.int64)
        matrix[eu, ev] = matrix[ev, eu] = 1
        # the subsets of size s in combinations order, each extended by
        # every larger vertex in turn, give those of size s + 1 in order
        subsets, counts = np.arange(n)[:, None], np.zeros(n, dtype=np.int64)
        for s in (2, 3, 4):
            last = subsets[:, -1]
            grow = n - 1 - last
            offset = np.cumsum(grow) - grow
            subsets, counts = np.repeat(subsets, grow, axis=0), np.repeat(counts, grow)
            new = np.arange(len(counts)) + np.repeat(last + 1 - offset, grow)
            counts += matrix[subsets, new[:, None]].sum(axis=1)
            subsets = np.column_stack((subsets, new))
            # check's formula, elementwise; check itself lists the violators
            norms = np.abs(counts - s * (s - 1) / 2 * p) / (s * scale)
            max_norm = float(norms.max(initial=max_norm))
            for t in np.flatnonzero(norms > c).tolist():
                check("small", subsets[t], int(counts[t]))
    else:
        smalls_mode = "sampled"  # folded into the random-subset stage below

    # (b) seeded random subsets of random sizes
    rng = generator(seed)
    lo_size = 2 if smalls_mode == "sampled" else 5
    # below lo_size the one subset left to draw is V itself: check it once
    for _ in range(subset_trials if n >= lo_size else min(subset_trials, 1)):
        s = int(rng.integers(lo_size, n + 1)) if n >= lo_size else n
        idx = rng.permutation(n)[:s]
        check("random", idx, _edge_count_within(g, idx))

    # (c) structured extremes; a component holds every edge at its vertices
    deg = g.degree_array
    for i, comp in enumerate(_components(g)):
        check("giant" if i == 0 else "component", comp, int(deg[comp].sum()) // 2)
    # the five first vertices in (-degree, vertex) order
    top = np.lexsort((np.arange(n), -deg))[:5].tolist()
    # twins share a closed neighbourhood: check each distinct one once
    at, rows = _row_walk(g)
    for closed in dict.fromkeys(frozenset((v, *rows[at[v]:at[v + 1]])) for v in top):
        check("neighbourhood", closed, _edge_count_within(g, list(closed)))

    violations.sort(key=lambda rec: rec["subset"])
    return AuditReport(
        property_id="edge-counts", condition="C1", holds=not violations,
        max_observed=max_norm, bound=float(c),
        violations=tuple(violations),
        params={**params, "smalls_mode": smalls_mode},
    )
