"""Per-vertex edge-removal budgets, exact resilience decisions via the cut
characterization, resilience thresholds, and the three attacks: cherry,
exhaustive cut search, and the greedy partition construction.

Boundary cases of the budget inequality deg_H(v) <= alpha * deg_G(v) are
semantically meaningful (a cycle at alpha = 1/2 flips the answer), so alpha
and all ratios are handled in exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, compress
from typing import Iterable, Optional

import numpy as np

from .classify import VertexClassification
from .graphs import Graph, VertexSet, is_connected, is_k_connected
from .rng import generator

# Exact-mode size caps: configuration, not physics. Worst cases at these
# sizes finish in minutes. Both stay <= 32: the scan packs a side into
# uint32 masks.
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


@dataclass(frozen=True)
class BudgetRule:
    """Per-vertex cap on removable edges: deg_H(v) <= alpha * deg_G(v) and
    deg_{G-H}(v) >= k, so cap(v) = min(floor(alpha * deg(v)), deg(v) - k).

    k = 0 is the plain fraction rule: alpha <= 1 makes its second bound
    deg(v) >= floor(alpha * deg(v)) always hold.
    """

    alpha: Fraction
    k: int = 0

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if not (0 <= self.alpha <= 1):
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")

    @staticmethod
    def fraction(alpha) -> "BudgetRule":
        return BudgetRule(alpha)

    @staticmethod
    def fraction_keep_degree(alpha, k: int) -> "BudgetRule":
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return BudgetRule(alpha, k)

    def caps(self, g: Graph) -> list:
        """Exact per-vertex caps on deg_H; can be negative where the rule is
        unsatisfiable at a vertex (then no H, not even the empty one, passes).
        """
        num, den = self.alpha.numerator, self.alpha.denominator
        return [min(num * d // den, d - self.k) for d in g.degrees]


def _h_degrees(g: Graph, h_edges: Iterable) -> list:
    """deg_H(v) for every vertex of g."""
    deg_h = [0] * g.n
    for u, v in h_edges:
        deg_h[u] += 1
        deg_h[v] += 1
    return deg_h


def _within(deg_h: list, caps: list) -> bool:
    return all(d <= c for d, c in zip(deg_h, caps))


def budget_allows(g: Graph, h_edges: Iterable, rule: BudgetRule) -> bool:
    """True iff the edge set h_edges respects the rule at every vertex."""
    h_edges = tuple(h_edges)
    for u, v in h_edges:
        if not g.has_edge(u, v):
            raise ValueError(f"h contains ({u}, {v}) which is not an edge of g")
    return _within(_h_degrees(g, h_edges), rule.caps(g))


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
    """E_G(A, B), the adversary subgraph of the cut, in edge order."""
    return tuple(compress(g.edges, _crosses(g, _side_vector(g.n, cut)).tolist()))


def cut_to_json_dict(g: Graph, cut: Cut, satisfied: Optional[bool] = None) -> dict:
    h = crossing_edges(g, cut)
    max_ratio = max(attack_ratios(g, h).values(), default=Fraction(0))
    return {
        "S": sorted(cut.separator),
        "A": sorted(cut.side_a),
        "B": sorted(cut.side_b),
        "H": [[u, v] for u, v in h],
        "max_ratio": str(max_ratio),
        "satisfied": bool(satisfied) if satisfied is not None else True,
    }


def cut_from_json_dict(d: dict) -> Cut:
    """The cut of a JSON object whose "A", "B" and optional "S" are lists
    of integers; ValueError for anything else."""
    if not isinstance(d, dict):
        raise ValueError(f"a cut must be a JSON object, got {type(d).__name__}")
    parts = []
    for key, part in (("S", d.get("S", [])), ("A", d.get("A")), ("B", d.get("B"))):
        if not (isinstance(part, list) and all(
                isinstance(v, int) and not isinstance(v, bool) for v in part)):
            raise ValueError(f"cut field {key!r} must be a list of integers, "
                             f"got {part!r}")
        parts.append(frozenset(part))
    return Cut(*parts)


def attack_ratios(g: Graph, h_edges: Iterable) -> dict:
    """Per-vertex deg_H(v) / deg_G(v) for vertices of positive degree."""
    deg_h = _h_degrees(g, h_edges)
    return {v: Fraction(deg_h[v], g.degree(v))
            for v in range(g.n) if g.degree(v) > 0}


@dataclass(frozen=True)
class AttackOutcome:
    """A constructed cut with its verification bit; the adversary subgraph
    and its ratios follow from the cut (crossing_edges, attack_ratios)."""

    cut: Cut
    satisfied: bool
    diagnostics: dict = field(default_factory=dict, repr=False)

    def to_json_dict(self, g: Graph) -> dict:
        d = cut_to_json_dict(g, self.cut, satisfied=self.satisfied)
        d["diagnostics"] = dict(self.diagnostics)
        return d


@dataclass(frozen=True)
class ResilienceReport:
    """Connectivity resilience threshold with its witness cut."""

    threshold: Fraction
    witness: Optional[Cut]
    method: str


def _crosses(g: Graph, side) -> np.ndarray:
    """Mask over g's edges: True where one endpoint is on each side."""
    eu, ev = g._ends
    at = np.asarray(side, dtype=np.int64)
    return at[eu] + at[ev] == 1


def _side_vector(n: int, cut: Cut) -> np.ndarray:
    """The cut as a crossing_degrees side vector: 0 on A, 1 on B, -1 in
    the separator."""
    side = np.full(n, -1, dtype=np.int64)
    side[list(cut.side_a)] = 0
    side[list(cut.side_b)] = 1
    return side


def random_equipartition(n: int, rng) -> list:
    """A side vector splitting 0..n-1 uniformly at random: the last n - n//2
    vertices of rng's permutation go to side B (1), the rest to A (0)."""
    side = [0] * n
    for v in rng.permutation(n).tolist()[n // 2:]:
        side[v] = 1
    return side


def crossing_degrees(g: Graph, side) -> list:
    """cross[v]: the neighbours of v on the other side of the cut.

    side[v] is 0 for side A, 1 for side B, and -1 for a separator or
    unplaced vertex, whose edges neither count nor are counted.
    """
    eu, ev = g._ends
    cut = _crosses(g, side)
    return (np.bincount(eu[cut], minlength=g.n)
            + np.bincount(ev[cut], minlength=g.n)).tolist()


# Masks scored per numpy chunk; larger chunks buy little speed and raise
# peak memory.
_CHUNK = 1 << 12


def _cut_chunks(g: Graph, remaining: list):
    """Every nontrivial bipartition of the sorted vertex list remaining, in
    canonical order, as chunks (masks, cross).

    Bit j of a uint32 mask puts remaining[j] on side B. Bit 0, the smallest
    remaining vertex, stays on side A, and the masks ascend, so the B sides
    come in the canonical witness order. cross[j, c] is the crossing degree
    of remaining[j] under masks[c]; edges to other vertices do not count.
    """
    bit = {v: j for j, v in enumerate(remaining)}
    nbr = [sum(1 << bit[u] for u in g.adj[v] if u in bit) for v in remaining]
    end = 1 << max(len(remaining) - 1, 0)  # masks are 2 * (1 .. end - 1)
    for lo in range(1, end, _CHUNK):
        masks = np.arange(lo, min(lo + _CHUNK, end), dtype=np.uint32) << 1
        cross = np.empty((len(remaining), len(masks)), dtype=np.uint8)
        for j, nb in enumerate(nbr):
            # all ones where remaining[j] is on side B (unsigned negation wraps)
            on_b = -((masks >> j) & 1)
            np.bitwise_count(nb & (masks ^ on_b), out=cross[j])
        yield masks, cross


def _sides(side) -> tuple:
    """(A, B) of a side vector."""
    return (frozenset(v for v, s in enumerate(side) if s == 0),
            frozenset(v for v, s in enumerate(side) if s == 1))


def _mask_cut(remaining: list, mask: int, separator=()) -> Cut:
    side_b = frozenset(v for j, v in enumerate(remaining) if mask >> j & 1)
    return Cut(frozenset(separator), frozenset(remaining) - side_b, side_b)


def _first_feasible_cut(g: Graph, caps: list, separator=()) -> Optional[Cut]:
    """The first bipartition of V - separator, in canonical order, whose
    crossing degrees all stay within caps. Separator vertices cross nothing,
    so they pass iff their cap is not negative."""
    if any(caps[s] < 0 for s in separator):
        return None
    remaining = [v for v in range(g.n) if v not in separator]
    limit = np.array([caps[v] for v in remaining], dtype=np.int64)[:, None]
    for masks, cross in _cut_chunks(g, remaining):
        ok = (cross <= limit).all(axis=0)
        if ok.any():
            return _mask_cut(remaining, int(masks[ok.argmax()]), separator)
    return None


def find_disconnecting_attack(g: Graph, rule: BudgetRule) -> Optional[Cut]:
    """Exact search for a budget-feasible disconnecting cut (S empty).

    Returns a certificate that g is NOT rule-resilient with respect to
    connectivity, or None if no bipartition works (exact: removing any
    feasible H exactly equal to a crossing edge set is the adversary's best
    move, since budgets are monotone under shrinking H). A single vertex has
    no bipartition and returns None.
    """
    if not is_connected(g):
        raise ValueError("attack search expects a connected graph")
    if g.n > EXACT_BIPARTITION_LIMIT:
        raise ValueError(
            f"n={g.n} exceeds the exact-mode bipartition limit "
            f"{EXACT_BIPARTITION_LIMIT}; "
            f"use connectivity_resilience_threshold in local_search mode or "
            f"greedy_partition_attack instead")
    return _first_feasible_cut(g, rule.caps(g))


def connectivity_resilience_threshold(g: Graph, mode: str = "exact",
                                      restarts: int = 32, seed: int = 0,
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
        if g.n > EXACT_BIPARTITION_LIMIT:
            raise ValueError(f"n={g.n} exceeds exact-mode limit "
                             f"{EXACT_BIPARTITION_LIMIT}; use mode='local_search'")
        # max_v cross/deg in exact integers: cross * (L / deg), L = lcm(deg)
        lcm = math.lcm(*g.degrees)
        # int64 scalars, so that the uint8 rows widen instead of overflowing
        weight = [np.int64(lcm // d) for d in g.degrees]
        remaining = list(range(g.n))
        best_top = best_mask = None
        for masks, cross in _cut_chunks(g, remaining):
            top = np.zeros(len(masks), dtype=np.int64)
            for row, w in zip(cross, weight):
                np.maximum(top, row * w, out=top)
            i = int(top.argmin())
            # only a strictly better chunk replaces: the first witness stays
            if best_top is None or top[i] < best_top:
                best_top, best_mask = int(top[i]), int(masks[i])
        return ResilienceReport(Fraction(best_top, lcm),
                                _mask_cut(remaining, best_mask), "exact")
    if mode != "local_search":
        raise ValueError(f"unknown mode {mode!r}")
    if restarts < 1:
        raise ValueError(f"local search needs restarts >= 1, got {restarts}")
    return _local_search_threshold(g, restarts, seed)


def _local_search_threshold(g: Graph, restarts: int, seed: int) -> ResilienceReport:
    """Hill-climb single-vertex moves minimizing the max cross/deg ratio.

    Acceptance is lexicographic on (top, held): the max ratio and the number
    of vertices holding it, so the search can walk off plateaus where several
    vertices share the worst ratio. A flip that does not raise the top lowers
    (top, held) iff fewer of the moved vertices (v and its neighbours) sit at
    the top after it than before. near[w] counts the top vertices in w's
    closed neighbourhood, and only flips with near[v] > 0 are scored: any
    other moves no top vertex, so it cannot pass that test.

    Ratios are float quotients of integers, which are correctly rounded:
    equal rationals give equal floats, and with every degree below 10^6
    distinct ones lie more than 1e-12 apart. So == merges exactly the equal
    ratios, as a 1e-12 tie window would at those degrees, and the exact
    answer is the Fraction of any vertex at the top.
    """
    n, adj = g.n, g.adj
    deg = g.degrees

    def summit(ratio):
        """(top, held, near) of a ratio list."""
        top = max(ratio)
        held = 0
        near = [0] * n
        for u, x in enumerate(ratio):
            if x == top:
                held += 1
                near[u] += 1
                for w in adj[u]:
                    near[w] += 1
        return top, held, near

    best = None  # (max_ratio Fraction, cut)
    for r in range(restarts):
        side = random_equipartition(n, generator(seed, r))
        on_b = n - n // 2
        cross = crossing_degrees(g, side)
        ratio = [c / d for c, d in zip(cross, deg)]
        top, held, near = summit(ratio)
        improved = True
        passes = 0
        while improved and passes < 64:
            improved = False
            passes += 1
            for v in range(n):
                if not near[v]:
                    continue
                s = side[v]
                if (s == 1 and on_b == 1) or (s == 0 and on_b == n - 1):
                    continue  # the flip would empty a side
                # flipping v: its own cross complements, neighbours shift by 1
                moved = [(v, deg[v] - cross[v])]
                moved.extend((u, cross[u] + 1 if side[u] == s else cross[u] - 1)
                             for u in adj[v])
                new_ratio = [c / deg[u] for u, c in moved]
                if max(new_ratio) > top:
                    continue  # the top would rise
                # +1 where a moved vertex reaches the top, -1 where it leaves
                shift = [(x == top) - (ratio[u] == top)
                         for (u, _), x in zip(moved, new_ratio)]
                gain = sum(shift)
                if gain >= 0:
                    continue  # no fewer vertices at the top than before
                side[v] = 1 - s
                on_b += 1 if s == 0 else -1
                held += gain
                for (u, c), x, d in zip(moved, new_ratio, shift):
                    cross[u] = c
                    ratio[u] = x
                    if d:
                        near[u] += d
                        for w in adj[u]:
                            near[w] += d
                if not held:
                    top, held, near = summit(ratio)
                improved = True
        u = ratio.index(top)
        bound = Fraction(cross[u], deg[u])
        if best is None or bound < best[0]:
            best = (bound, Cut(frozenset(), *_sides(side)))
    return ResilienceReport(best[0], best[1], "local-search-upper-bound")


def find_k_conn_attack(g: Graph, rule: BudgetRule, k: int) -> Optional[Cut]:
    """Exact search for (S, A, B) with |S| <= k-1 and budget-feasible
    crossing edges: a certificate that g is not rule-resilient w.r.t.
    k-connectivity. None iff no certificate exists.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not is_k_connected(g, k):
        raise ValueError("attack expects a k-connected input graph")
    if g.n > EXACT_SEPARATOR_LIMIT:
        raise ValueError(f"n={g.n} exceeds the exact separator-mode limit "
                         f"{EXACT_SEPARATOR_LIMIT}")
    caps = rule.caps(g)
    for s_size in range(k):
        for sep in combinations(range(g.n), s_size):
            cut = _first_feasible_cut(g, caps, sep)
            if cut is not None:
                return cut
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
    """True iff every vertex has crossing degree <= (1/2 + epsilon) * degree,
    that is, the crossing edges respect BudgetRule(1/2 + epsilon); an integer
    crossing degree is within alpha * deg iff it is within floor(alpha * deg).

    epsilon is taken as a rational and must lie in [-1/2, 1/2]. The
    separator must be empty and the sides must cover the graph.
    """
    eps = Fraction(epsilon)
    if not (-Fraction(1, 2) <= eps <= Fraction(1, 2)):
        raise ValueError(f"epsilon must be in [-1/2, 1/2], got {eps}")
    if cut.separator:
        raise ValueError("star condition is defined for separator-free cuts")
    cut.validate_for(g)
    caps = BudgetRule(Fraction(1, 2) + eps).caps(g)
    return _within(crossing_degrees(g, _side_vector(g.n, cut)), caps)


def greedy_partition_attack(g: Graph, cls: VertexClassification,
                            d_threshold: float, epsilon, seed: int) -> AttackOutcome:
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
    eps = Fraction(epsilon)
    if not (0 < eps < Fraction(1, 2)):
        raise ValueError(f"epsilon must be in (0, 1/2), got {eps}")
    if g.n < 2:
        raise ValueError("attack needs at least two vertices")

    side = random_equipartition(g.n, generator(seed))
    deg = g.degrees
    cross = crossing_degrees(g, side)
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

    cross = crossing_degrees(g, side)
    # star budgets: deg/2 on tiny vertices, (1/2 + epsilon) deg elsewhere
    half = BudgetRule(Fraction(1, 2)).caps(g)
    caps = BudgetRule(Fraction(1, 2) + eps).caps(g)
    for v in tiny:
        caps[v] = half[v]

    moves = sweeps = 0
    while True:
        sweeps += 1
        if sweeps > g.n:
            raise RearrangementOverflowError(
                f"rearrangement did not converge within {g.n} sweeps",
                partial_sides=_sides(side),
                diagnostics={"moves": moves, "sweeps": sweeps,
                             "removed": len(removed)})
        moved = False
        for v in range(g.n):
            if cross[v] > caps[v]:
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

    side_a, side_b = _sides(side)
    diagnostics = {"moves": moves, "sweeps": sweeps, "removed": len(removed),
                   "d_set": len(d_set), "d_threshold": d_threshold,
                   "epsilon": str(eps)}
    if not side_a or not side_b:
        raise PartitionCollapsedError(
            f"partition collapsed to one side (moves={moves}, "
            f"removed={len(removed)}); the input is outside the regime "
            f"where the construction converges")
    cut = Cut(frozenset(), side_a, side_b)
    return AttackOutcome(cut=cut, satisfied=verify_star_condition(g, cut, eps),
                         diagnostics=diagnostics)


def replay_cut(g: Graph, cut: Cut, rule: BudgetRule) -> dict:
    """Self-verification of a certificate: recount deg_H from the cut and
    check the budget. Removing H and the separator always disconnects a cut
    that covers g, since A and B are nonempty and H is every A-B edge.
    """
    cut.validate_for(g)
    deg_h = crossing_degrees(g, _side_vector(g.n, cut))
    allowed = _within(deg_h, rule.caps(g))
    keep_ok = all(d - dh >= rule.k for d, dh in zip(g.degrees, deg_h))
    return {
        "budget_allowed": allowed,
        "disconnects": True,
        "keep_degree_ok": keep_ok,
        "valid": allowed and keep_ok,
        "h_size": sum(deg_h) // 2,
    }
