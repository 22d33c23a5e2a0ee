"""Per-vertex edge-removal budgets, exact resilience decisions via the cut
characterization, resilience thresholds, and the three attacks: cherry,
exhaustive cut search, and the greedy partition construction.

Boundary cases of the budget inequality deg_H(v) <= alpha * deg_G(v) are
semantically meaningful (a cycle at alpha = 1/2 flips the answer), so alpha
and all ratios are handled in exact rational arithmetic.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, compress
from typing import Iterable, Optional

import numpy as np

from .classify import VertexClassification
from .graphs import Graph, VertexSet, is_connected, is_k_connected
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
    if len(remaining) > 32:
        raise ValueError(f"the exact cut scan packs a side into 32 bits; "
                         f"{len(remaining)} vertices do not fit")
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


def find_disconnecting_attack(g: Graph, rule: BudgetRule,
                              exact_limit: int = EXACT_BIPARTITION_LIMIT,
                              ) -> Optional[Cut]:
    """Exact search for a budget-feasible disconnecting cut (S empty).

    Returns a certificate that g is NOT rule-resilient with respect to
    connectivity, or None if no bipartition works (exact: removing any
    feasible H exactly equal to a crossing edge set is the adversary's best
    move, since budgets are monotone under shrinking H). A single vertex has
    no bipartition and returns None.
    """
    if not is_connected(g):
        raise ValueError("attack search expects a connected graph")
    if g.n > exact_limit:
        raise ValueError(
            f"n={g.n} exceeds the exact-mode bipartition limit {exact_limit}; "
            f"use connectivity_resilience_threshold in local_search mode or "
            f"greedy_partition_attack instead")
    return _first_feasible_cut(g, rule.caps(g))


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


class _RatioTally:
    """Every vertex's ratio cross/deg, grouped: the vertices holding each
    distinct value, and the distinct values in ascending order."""

    def __init__(self, ratio: list):
        self.holders = {}
        for v, x in enumerate(ratio):
            self.holders.setdefault(x, set()).add(v)
        self.keys = sorted(self.holders)

    def move(self, v: int, old: float, new: float) -> None:
        """Vertex v's ratio changes from old to new."""
        if old == new:
            return
        holders, keys = self.holders, self.keys
        holders[old].discard(v)
        if not holders[old]:
            del holders[old]
            del keys[bisect_left(keys, old)]
        if new in holders:
            holders[new].add(v)
        else:
            holders[new] = {v}
            insort(keys, new)

    def _top_keys(self) -> list:
        """The values within 1e-12 of the top."""
        keys = self.keys
        floor = keys[-1] - 1e-12
        i = len(keys) - 1
        while i > 0 and keys[i - 1] >= floor:
            i -= 1
        return keys[i:]

    def objective(self) -> tuple:
        """(top ratio, number of vertices within 1e-12 of it)."""
        return self.keys[-1], sum(len(self.holders[x]) for x in self._top_keys())

    def at_top(self) -> set:
        return set().union(*(self.holders[x] for x in self._top_keys()))


def _local_search_threshold(g: Graph, restarts: int, seed: int) -> ResilienceReport:
    """Hill-climb single-vertex moves minimizing the max cross/deg ratio.

    Acceptance is lexicographic on (max ratio, number of vertices at the
    max) so the search can walk off plateaus where several vertices share
    the worst ratio. A flip is scored by moving only the ratios of v and its
    neighbours in a tally of all ratios, and only flips next to or at a top
    vertex are scored: any other leaves the top vertices as they are, so it
    cannot lower the objective.
    """
    n, adj = g.n, g.adj
    deg = g.degrees
    safe_deg = [max(d, 1) for d in deg]

    def near_top(tally):
        near = set()
        for u in tally.at_top():
            near.add(u)
            near.update(adj[u])
        return near

    best = None  # (max_ratio Fraction, cut)
    for r in range(restarts):
        side = random_equipartition(n, generator(seed, r))
        on_b = n - n // 2
        cross = crossing_degrees(g, side)
        ratio = [c / d for c, d in zip(cross, safe_deg)]
        tally = _RatioTally(ratio)
        cur = tally.objective()
        near = near_top(tally)
        improved = True
        passes = 0
        while improved and passes < 64:
            improved = False
            passes += 1
            for v in range(n):
                if v not in near:
                    continue
                s = side[v]
                if (s == 1 and on_b == 1) or (s == 0 and on_b == n - 1):
                    continue  # the flip would empty a side
                # flipping v: its own cross complements, neighbours shift by 1
                moved = [(v, deg[v] - cross[v])]
                moved.extend((u, cross[u] + 1 if side[u] == s else cross[u] - 1)
                             for u in adj[v])
                new_ratio = [c / safe_deg[u] for u, c in moved]
                if max(new_ratio) > cur[0]:
                    continue  # the top would rise
                for (u, _), new in zip(moved, new_ratio):
                    tally.move(u, ratio[u], new)
                cand = tally.objective()
                if cand < cur:
                    side[v] = 1 - s
                    on_b += 1 if s == 0 else -1
                    for (u, c), new in zip(moved, new_ratio):
                        cross[u] = c
                        ratio[u] = new
                    cur = cand
                    near = near_top(tally)
                    improved = True
                else:
                    for (u, _), new in zip(moved, new_ratio):
                        tally.move(u, new, ratio[u])
        # the exact max is among the vertices whose float ratio is the top
        top = max(Fraction(cross[u], safe_deg[u]) for u in tally.at_top())
        cut = Cut(frozenset(), *_sides(side))
        if best is None or top < best[0]:
            best = (top, cut)
    return ResilienceReport(best[0], best[1], "local-search-upper-bound")


def find_k_conn_attack(g: Graph, rule: BudgetRule, k: int,
                       exact_limit: int = EXACT_SEPARATOR_LIMIT,
                       ) -> Optional[Cut]:
    """Exact search for (S, A, B) with |S| <= k-1 and budget-feasible
    crossing edges: a certificate that g is not rule-resilient w.r.t.
    k-connectivity. None iff no certificate exists.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not is_k_connected(g, k):
        raise ValueError("attack expects a k-connected input graph")
    if g.n > exact_limit:
        raise ValueError(f"n={g.n} exceeds the exact separator-mode limit "
                         f"{exact_limit}")
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
    """True iff every vertex has crossing degree <= (1/2 + epsilon) * degree.

    Exact comparison: epsilon is converted to a rational. The separator must
    be empty and the sides must cover the graph.
    """
    if cut.separator:
        raise ValueError("star condition is defined for separator-free cuts")
    cut.validate_for(g)
    eps = Fraction(epsilon)
    p, q = eps.numerator, eps.denominator
    cross = crossing_degrees(g, _side_vector(g.n, cut))
    # cross <= (1/2 + p/q) deg  <=>  2 q cross <= (q + 2 p) deg
    return all(2 * q * c <= (q + 2 * p) * d for c, d in zip(cross, g.degrees))


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
    ep, eq = eps.numerator, eps.denominator

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

    def violates(v):
        if v in tiny:
            return 2 * cross[v] > deg[v]
        return 2 * eq * cross[v] > (eq + 2 * ep) * deg[v]

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
    h = crossing_edges(g, cut)
    return AttackOutcome(
        cut=cut, h_edges=h, ratios=attack_ratios(g, h),
        satisfied=verify_star_condition(g, cut, eps),
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
