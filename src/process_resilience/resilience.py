"""Per-vertex edge-removal budgets, exact resilience decisions via the cut
characterization, resilience thresholds, and the three attacks: cherry,
exhaustive cut search, and the greedy partition construction.

Boundary cases of the budget inequality deg_H(v) <= alpha * deg_G(v) are
semantically meaningful (a cycle at alpha = 1/2 flips the answer), so alpha
and all ratios are handled in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .classify import VertexClassification
from .graphs import Graph, VertexSet, connected_components, is_connected, is_k_connected
from .rng import generator

# Exact-mode size caps: configuration, not physics. Worst cases at these
# sizes finish in minutes; pass a larger limit explicitly if you mean it.
EXACT_BIPARTITION_LIMIT = 24
EXACT_SEPARATOR_LIMIT = 16


class AttackError(RuntimeError):
    """An attack construction could not produce a valid certificate."""


class RearrangementOverflowError(AttackError):
    """Rearrangement pass exceeded its sweep cap; carries the partial cut.

    Signals that the input is far outside the regime where the construction
    is expected to converge.
    """

    def __init__(self, message, partial_sides, diagnostics):
        super().__init__(message)
        self.partial_sides = partial_sides
        self.diagnostics = diagnostics


class PartitionCollapsedError(AttackError):
    """Insertion/rearrangement drained one side of the partition."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    return Fraction(x)


@dataclass(frozen=True)
class BudgetRule:
    """Per-vertex cap on removable edges.

    fraction:            deg_H(v) <= alpha * deg_G(v)
    fraction_keep_degree: additionally deg_{G-H}(v) >= k
    piecewise:           deg_G(v) - K_t at tiny vertices, deg_G(v) - K_a at
                         atypical-but-not-tiny vertices, alpha * deg_G(v)
                         elsewhere (tiny/atyp taken from a caller-supplied
                         classification)
    """

    kind: str
    alpha: Fraction
    k: Optional[int] = None
    delta_t: Optional[float] = None
    K_t: Optional[int] = None
    delta_a: Optional[float] = None
    K_a: Optional[int] = None
    p: Optional[float] = None

    def __post_init__(self):
        if not (0 <= self.alpha <= 1):
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")

    @staticmethod
    def fraction(alpha) -> "BudgetRule":
        return BudgetRule("fraction", _as_fraction(alpha))

    @staticmethod
    def fraction_keep_degree(alpha, k: int) -> "BudgetRule":
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return BudgetRule("fraction_keep_degree", _as_fraction(alpha), k=k)

    @staticmethod
    def piecewise(alpha, delta_t: float, K_t: int, delta_a: float, K_a: int,
                  p: Optional[float] = None) -> "BudgetRule":
        if K_t < 1 or K_a < 1:
            raise ValueError("K_t and K_a must be >= 1")
        return BudgetRule("piecewise", _as_fraction(alpha), delta_t=delta_t,
                          K_t=K_t, delta_a=delta_a, K_a=K_a, p=p)

    def caps(self, g: Graph, cls: Optional[VertexClassification] = None) -> list:
        """Exact per-vertex caps on deg_H; can be negative where the rule is
        unsatisfiable at a vertex (then no H, not even the empty one, passes).
        """
        num, den = self.alpha.numerator, self.alpha.denominator
        out = []
        if self.kind == "fraction":
            for v in range(g.n):
                out.append(num * g.degree(v) // den)
        elif self.kind == "fraction_keep_degree":
            for v in range(g.n):
                d = g.degree(v)
                out.append(min(num * d // den, d - self.k))
        elif self.kind == "piecewise":
            if cls is None:
                raise ValueError("piecewise budget evaluation requires a "
                                 "vertex classification")
            if cls.n != g.n:
                raise ValueError("classification universe does not match graph")
            for v in range(g.n):
                d = g.degree(v)
                if v in cls.tiny:
                    out.append(d - self.K_t)
                elif v in cls.atyp:
                    out.append(d - self.K_a)
                else:
                    out.append(num * d // den)
        else:
            raise ValueError(f"unknown budget rule kind {self.kind!r}")
        return out

    def to_json_dict(self) -> dict:
        d = {"kind": self.kind, "alpha": str(self.alpha)}
        for key in ("k", "delta_t", "K_t", "delta_a", "K_a", "p"):
            val = getattr(self, key)
            if val is not None:
                d[key] = val
        return d


def budget_allows(g: Graph, h_edges: Iterable, rule: BudgetRule,
                  cls: Optional[VertexClassification] = None) -> bool:
    """True iff the edge set h_edges respects the rule at every vertex."""
    deg_h = [0] * g.n
    for u, v in h_edges:
        if not g.has_edge(u, v):
            raise ValueError(f"h contains ({u}, {v}) which is not an edge of g")
        deg_h[u] += 1
        deg_h[v] += 1
    caps = rule.caps(g, cls)
    return all(deg_h[v] <= caps[v] for v in range(g.n))


@dataclass(frozen=True)
class Cut:
    """Attack certificate: optional separator S plus bipartition (A, B).

    S, A, B partition the vertex set; A and B are nonempty. The adversary
    subgraph is the set of A-B crossing edges.
    """

    separator: VertexSet
    side_a: VertexSet
    side_b: VertexSet

    def __post_init__(self):
        if not self.side_a or not self.side_b:
            raise ValueError("cut sides must be nonempty")
        if (self.side_a & self.side_b or self.side_a & self.separator
                or self.side_b & self.separator):
            raise ValueError("separator and sides must be pairwise disjoint")

    def validate_for(self, g: Graph) -> None:
        cover = self.separator | self.side_a | self.side_b
        if cover != frozenset(range(g.n)):
            raise ValueError("cut does not cover the graph's vertex set")


def crossing_edges(g: Graph, cut: Cut) -> tuple:
    """E_G(A, B), the adversary subgraph of the cut."""
    a, b = cut.side_a, cut.side_b
    return tuple((u, v) for u, v in g.edges
                 if (u in a and v in b) or (u in b and v in a))


def cut_to_json_dict(g: Graph, cut: Cut, satisfied: Optional[bool] = None,
                     ratios: Optional[dict] = None) -> dict:
    h = crossing_edges(g, cut)
    if ratios is None:
        ratios = attack_ratios(g, h)
    max_ratio = max(ratios.values(), default=Fraction(0))
    return {
        "S": sorted(cut.separator),
        "A": sorted(cut.side_a),
        "B": sorted(cut.side_b),
        "H": [[u, v] for u, v in h],
        "max_ratio": str(max_ratio),
        "satisfied": bool(satisfied) if satisfied is not None else True,
    }


def cut_from_json_dict(d: dict) -> Cut:
    return Cut(frozenset(d.get("S", ())), frozenset(d["A"]), frozenset(d["B"]))


def attack_ratios(g: Graph, h_edges: Iterable) -> dict:
    """Per-vertex deg_H(v) / deg_G(v) for vertices of positive degree."""
    deg_h = [0] * g.n
    for u, v in h_edges:
        deg_h[u] += 1
        deg_h[v] += 1
    return {v: Fraction(deg_h[v], g.degree(v))
            for v in range(g.n) if g.degree(v) > 0}


@dataclass(frozen=True)
class AttackOutcome:
    """A constructed cut with its adversary subgraph and verification bits."""

    cut: Cut
    h_edges: tuple
    ratios: dict = field(repr=False)
    satisfied: bool
    diagnostics: dict = field(default_factory=dict, repr=False)

    def to_json_dict(self, g: Graph) -> dict:
        d = cut_to_json_dict(g, self.cut, satisfied=self.satisfied,
                             ratios=self.ratios)
        d["diagnostics"] = dict(self.diagnostics)
        return d


@dataclass(frozen=True)
class ResilienceReport:
    """Connectivity resilience threshold with its witness cut."""

    threshold: Fraction
    witness: Optional[Cut]
    method: str


def _iter_bipartitions(vertices: list):
    """Nontrivial bipartitions, smallest vertex pinned to side A; B-side
    subsets enumerated in ascending mask order (the canonical witness order).
    """
    rest = vertices[1:]
    r = len(rest)
    for mask in range(1, 1 << r):
        b = [rest[i] for i in range(r) if mask >> i & 1]
        a = [vertices[0]] + [rest[i] for i in range(r) if not mask >> i & 1]
        yield a, b


def find_disconnecting_attack(g: Graph, rule: BudgetRule,
                              cls: Optional[VertexClassification] = None,
                              exact_limit: int = EXACT_BIPARTITION_LIMIT,
                              ) -> Optional[Cut]:
    """Exact search for a budget-feasible disconnecting cut (S empty).

    Returns a certificate that g is NOT rule-resilient with respect to
    connectivity, or None if no bipartition works (exact: removing any
    feasible H exactly equal to a crossing edge set is the adversary's best
    move, since budgets are monotone under shrinking H). Graphs with n <= 2
    have no nontrivial certificate under budgets < 1 and return None.
    """
    if not is_connected(g):
        raise ValueError("attack search expects a connected graph")
    if g.n <= 2:
        return None
    if g.n > exact_limit:
        raise ValueError(
            f"n={g.n} exceeds the exact-mode bipartition limit {exact_limit}; "
            f"use connectivity_resilience_threshold in local_search mode or "
            f"greedy_partition_attack instead")
    caps = rule.caps(g, cls)
    for a, b in _iter_bipartitions(list(range(g.n))):
        in_b = [False] * g.n
        for v in b:
            in_b[v] = True
        cross = [0] * g.n
        feasible = True
        for u, v in g.edges:
            if in_b[u] != in_b[v]:
                cross[u] += 1
                cross[v] += 1
                if cross[u] > caps[u] or cross[v] > caps[v]:
                    feasible = False
                    break
        if feasible:
            return Cut(frozenset(), frozenset(a), frozenset(b))
    return None


def connectivity_resilience_threshold(g: Graph, mode: str = "exact",
                                      restarts: int = 32, seed: int = 0,
                                      exact_limit: int = EXACT_BIPARTITION_LIMIT,
                                      ) -> ResilienceReport:
    """alpha* = min over nontrivial bipartitions of max_v cross(v)/deg(v).

    g fails fraction(alpha)-resilience w.r.t. connectivity iff alpha >=
    alpha*. Exact mode enumerates bipartitions and returns an exact rational
    with the first witness in canonical order; local_search mode returns a
    seeded hill-climbing upper bound.
    """
    if not is_connected(g):
        raise ValueError("threshold expects a connected graph")
    if g.n < 2:
        raise ValueError("threshold needs n >= 2")
    if mode == "exact":
        if g.n > exact_limit:
            raise ValueError(f"n={g.n} exceeds exact-mode limit {exact_limit}; "
                             f"use mode='local_search'")
        best_num = best_den = None  # max-ratio of the best bipartition
        best_cut = None
        for a, b in _iter_bipartitions(list(range(g.n))):
            in_b = [False] * g.n
            for v in b:
                in_b[v] = True
            cross = [0] * g.n
            for u, v in g.edges:
                if in_b[u] != in_b[v]:
                    cross[u] += 1
                    cross[v] += 1
            mnum, mden = 0, 1
            for v in range(g.n):
                if cross[v] * mden > mnum * g.degree(v):
                    mnum, mden = cross[v], g.degree(v)
            if best_num is None or mnum * best_den < best_num * mden:
                best_num, best_den = mnum, mden
                best_cut = Cut(frozenset(), frozenset(a), frozenset(b))
        return ResilienceReport(Fraction(best_num, best_den), best_cut, "exact")
    if mode != "local_search":
        raise ValueError(f"unknown mode {mode!r}")
    return _local_search_threshold(g, restarts, seed)


def _local_search_threshold(g: Graph, restarts: int, seed: int) -> ResilienceReport:
    """Hill-climb single-vertex moves minimizing the max cross/deg ratio.

    Acceptance is lexicographic on (max ratio, number of vertices at the
    max) so the search can walk off plateaus where several vertices share
    the worst ratio.
    """
    deg = np.array([g.degree(v) for v in range(g.n)], dtype=np.int64)
    safe_deg = np.maximum(deg, 1)
    eu = np.fromiter((e[0] for e in g.edges), dtype=np.int64, count=g.m)
    ev = np.fromiter((e[1] for e in g.edges), dtype=np.int64, count=g.m)

    def objective(cross):
        ratios = cross / safe_deg
        top = ratios.max()
        return (top, int((ratios >= top - 1e-12).sum()))

    best = None  # (max_ratio Fraction, cut)
    for r in range(restarts):
        rng = generator(seed, r)
        perm = rng.permutation(g.n)
        side = np.zeros(g.n, dtype=np.int8)
        side[perm[g.n // 2:]] = 1
        crossing = side[eu] != side[ev]
        cross = (np.bincount(eu[crossing], minlength=g.n)
                 + np.bincount(ev[crossing], minlength=g.n))
        cur = objective(cross)
        improved = True
        passes = 0
        while improved and passes < 64:
            improved = False
            passes += 1
            for v in range(g.n):
                # flipping v: its own cross complements, neighbours shift by 1
                new_cross = cross.copy()
                new_cross[v] = deg[v] - cross[v]
                nbrs = np.fromiter(g.adj[v], dtype=np.int64, count=deg[v])
                same = side[nbrs] == side[v]
                new_cross[nbrs[same]] += 1
                new_cross[nbrs[~same]] -= 1
                cand = objective(new_cross)
                if cand < cur:
                    one_side = int(side.sum())
                    if side[v] == 1 and one_side == 1:
                        continue
                    if side[v] == 0 and one_side == g.n - 1:
                        continue
                    side[v] = 1 - side[v]
                    cross = new_cross
                    cur = cand
                    improved = True
        ratio = max((Fraction(int(cross[v]), int(deg[v]))
                     for v in range(g.n) if deg[v] > 0), default=Fraction(0))
        cut = Cut(frozenset(), frozenset(np.flatnonzero(side == 0).tolist()),
                  frozenset(np.flatnonzero(side == 1).tolist()))
        if best is None or ratio < best[0]:
            best = (ratio, cut)
    return ResilienceReport(best[0], best[1], "local-search-upper-bound")


def find_k_conn_attack(g: Graph, rule: BudgetRule, k: int,
                       cls: Optional[VertexClassification] = None,
                       exact_limit: int = EXACT_SEPARATOR_LIMIT,
                       ) -> Optional[Cut]:
    """Exact search for (S, A, B) with |S| <= k-1 and budget-feasible
    crossing edges: a certificate that g is not rule-resilient w.r.t.
    k-connectivity. None iff no certificate exists.
    """
    from itertools import combinations

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not is_k_connected(g, k):
        raise ValueError("attack expects a k-connected input graph")
    if g.n > exact_limit:
        raise ValueError(f"n={g.n} exceeds the exact separator-mode limit "
                         f"{exact_limit}")
    caps = rule.caps(g, cls)
    for s_size in range(k):
        for sep in combinations(range(g.n), s_size):
            sep_set = frozenset(sep)
            remaining = [v for v in range(g.n) if v not in sep_set]
            if len(remaining) < 2:
                continue
            for a, b in _iter_bipartitions(remaining):
                in_b = [False] * g.n
                for v in b:
                    in_b[v] = True
                in_a = [False] * g.n
                for v in a:
                    in_a[v] = True
                cross = [0] * g.n
                feasible = True
                for u, v in g.edges:
                    if (in_a[u] and in_b[v]) or (in_b[u] and in_a[v]):
                        cross[u] += 1
                        cross[v] += 1
                        if cross[u] > caps[u] or cross[v] > caps[v]:
                            feasible = False
                            break
                if feasible:
                    return Cut(sep_set, frozenset(a), frozenset(b))
    return None


def cherry_attack(g: Graph) -> Optional[tuple]:
    """Find a cherry and return the edge whose removal detaches it.

    A cherry is a degree-3 vertex c with two degree-1 neighbours; removing
    c's third edge {c, d} disconnects {c and its two leaves} while removing
    only 1 of 3 edges at c and 1 of deg(d) at d. Ties broken by smallest c,
    then smallest d.
    """
    for c in range(g.n):
        if g.degree(c) != 3:
            continue
        leaves = [u for u in g.adj[c] if g.degree(u) == 1]
        anchors = [u for u in g.adj[c] if g.degree(u) > 1]
        if len(leaves) >= 2 and anchors:
            d = min(anchors)
            return (c, d) if c < d else (d, c)
    return None


def verify_star_condition(g: Graph, cut: Cut, epsilon) -> bool:
    """True iff every vertex has crossing degree <= (1/2 + epsilon) * degree.

    Exact comparison: epsilon is converted to a rational. The separator must
    be empty and the sides must cover the graph.
    """
    if cut.separator:
        raise ValueError("star condition is defined for separator-free cuts")
    cut.validate_for(g)
    eps = _as_fraction(epsilon)
    p, q = eps.numerator, eps.denominator
    in_b = [False] * g.n
    for v in cut.side_b:
        in_b[v] = True
    cross = [0] * g.n
    for u, v in g.edges:
        if in_b[u] != in_b[v]:
            cross[u] += 1
            cross[v] += 1
    # cross <= (1/2 + p/q) deg  <=>  2 q cross <= (q + 2 p) deg
    return all(2 * q * cross[v] <= (q + 2 * p) * g.degree(v)
               for v in range(g.n))


def greedy_partition_attack(g: Graph, cls: VertexClassification,
                            d_threshold: float, epsilon, seed: int,
                            sweep_cap: Optional[int] = None) -> AttackOutcome:
    """Constructive bipartition attack.

    (1) seeded random equipartition; (2) mark D, the vertices whose crossing
    degree exceeds d_threshold; (3) drop ATYP and D from both sides; (4)
    reinsert them — first the non-tiny, then the tiny, ascending index — each
    to the side holding the majority of its placed neighbours (ties to A);
    (5) rearrangement: repeatedly move any vertex whose crossing degree
    exceeds its star budget — deg/2 for tiny vertices, (1/2 + epsilon) * deg
    otherwise — to the opposite (majority) side until a full sweep makes no
    move. Every move strictly decreases the number of crossing edges, so the
    pass terminates; it is capped at n sweeps and raises
    RearrangementOverflowError (carrying the partial sides) if exceeded.

    The returned outcome's ``satisfied`` flag replays the cut through
    verify_star_condition at the given epsilon.
    """
    if cls.n != g.n:
        raise ValueError(f"classification universe {cls.n} does not match "
                         f"graph on {g.n} vertices")
    eps = _as_fraction(epsilon)
    if not (0 < eps < Fraction(1, 2)):
        raise ValueError(f"epsilon must be in (0, 1/2), got {eps}")
    if g.n < 2:
        raise ValueError("attack needs at least two vertices")
    ep, eq = eps.numerator, eps.denominator
    cap = g.n if sweep_cap is None else sweep_cap

    rng = generator(seed)
    perm = rng.permutation(g.n).tolist()
    side = [0] * g.n
    for v in perm[g.n // 2:]:
        side[v] = 1

    deg = [g.degree(v) for v in range(g.n)]

    def recount_cross():
        cross = [0] * g.n
        for u, v in g.edges:
            if side[u] != side[v] and side[u] != -1 and side[v] != -1:
                cross[u] += 1
                cross[v] += 1
        return cross

    cross = recount_cross()
    d_set = frozenset(v for v in range(g.n) if cross[v] > d_threshold)
    removed = sorted(cls.atyp | d_set)
    for v in removed:
        side[v] = -1

    tiny = cls.tiny
    insertion = [v for v in removed if v not in tiny] + [v for v in removed if v in tiny]
    for v in insertion:
        in_a = in_b = 0
        for u in g.adj[v]:
            if side[u] == 0:
                in_a += 1
            elif side[u] == 1:
                in_b += 1
        side[v] = 0 if in_a >= in_b else 1

    cross = recount_cross()

    def violates(v):
        if v in tiny:
            return 2 * cross[v] > deg[v]
        return 2 * eq * cross[v] > (eq + 2 * ep) * deg[v]

    moves = sweeps = 0
    while True:
        sweeps += 1
        if sweeps > cap:
            raise RearrangementOverflowError(
                f"rearrangement did not converge within {cap} sweeps",
                partial_sides=(frozenset(v for v in range(g.n) if side[v] == 0),
                               frozenset(v for v in range(g.n) if side[v] == 1)),
                diagnostics={"moves": moves, "sweeps": sweeps,
                             "removed": len(removed)})
        moved = False
        for v in range(g.n):
            if violates(v):
                s = side[v]
                for u in g.adj[v]:
                    if side[u] == s:
                        cross[u] += 1
                    else:
                        cross[u] -= 1
                side[v] = 1 - s
                cross[v] = deg[v] - cross[v]
                moves += 1
                moved = True
        if not moved:
            break

    side_a = frozenset(v for v in range(g.n) if side[v] == 0)
    side_b = frozenset(v for v in range(g.n) if side[v] == 1)
    diagnostics = {"moves": moves, "sweeps": sweeps, "removed": len(removed),
                   "d_set": len(d_set), "d_threshold": d_threshold,
                   "epsilon": str(eps)}
    if not side_a or not side_b:
        raise PartitionCollapsedError(
            f"partition collapsed to one side (moves={moves}, "
            f"removed={len(removed)}); the input is outside the regime "
            f"where the construction converges")
    cut = Cut(frozenset(), side_a, side_b)
    h = crossing_edges(g, cut)
    return AttackOutcome(
        cut=cut, h_edges=h, ratios=attack_ratios(g, h),
        satisfied=verify_star_condition(g, cut, eps),
        diagnostics=diagnostics)


def replay_cut(g: Graph, cut: Cut, rule: BudgetRule,
               cls: Optional[VertexClassification] = None,
               k: Optional[int] = None) -> dict:
    """Self-verification of a certificate: recompute H from the cut, check
    the budget, and check that removing H (and the separator) disconnects.
    """
    cut.validate_for(g)
    h = crossing_edges(g, cut)
    allowed = budget_allows(g, h, rule, cls)
    h_set = set(h)
    survivors = [v for v in range(g.n) if v not in cut.separator]
    index = {v: i for i, v in enumerate(survivors)}
    from .graphs import _graph_from_pairs
    rest = _graph_from_pairs(
        len(survivors),
        ((index[u], index[v]) for u, v in g.edges
         if u in index and v in index and (u, v) not in h_set))
    disconnected = len(connected_components(rest)) > 1 if rest.n else False
    keep_ok = True
    if k is not None and rule.kind == "fraction_keep_degree":
        deg_h = [0] * g.n
        for u, v in h:
            deg_h[u] += 1
            deg_h[v] += 1
        keep_ok = all(g.degree(v) - deg_h[v] >= rule.k for v in range(g.n))
    return {
        "budget_allowed": allowed,
        "disconnects": disconnected,
        "keep_degree_ok": keep_ok,
        "valid": allowed and disconnected and keep_ok,
        "h_size": len(h),
    }
