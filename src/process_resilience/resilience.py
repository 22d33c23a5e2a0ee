"""Per-vertex edge-removal budgets, exact resilience decisions via the cut
characterization, resilience thresholds, and the three attacks: cherry,
exact cut search, and the greedy partition construction.

Boundary cases of the budget inequality deg_H(v) <= alpha * deg_G(v) are
semantically meaningful (a cycle at alpha = 1/2 flips the answer), so alpha
and all ratios are handled in exact rational arithmetic.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from heapq import heappop, heappush
from itertools import combinations, compress
from typing import Iterable, Optional

import numpy as np

from .classify import VertexClassification
from .graphs import (Graph, _integer, _is_edge, _pair_arrays, _real,
                     _row_positions, _row_walk, _vertices, incidence,
                     is_connected, is_k_connected)
from .rng import generator

# Exact-mode size caps: configuration, not physics.
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


def _fraction(name: str, value, low, high, bounds: str = "[]") -> Fraction:
    """``value`` as a Fraction; ValueError as ``graphs._real`` gives it
    unless it is a real number in the interval, or a string that Fraction
    reads as one ("2/3")."""
    if isinstance(value, str):
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    return Fraction(_real(name, value, low, high, bounds))


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
        object.__setattr__(self, "alpha", _fraction("alpha", self.alpha, 0, 1))
        object.__setattr__(self, "k", _integer("k", self.k, 0))

    def caps(self, g: Graph) -> np.ndarray:
        """Exact per-vertex caps on deg_H; can be negative where the rule is
        unsatisfiable at a vertex (then no H, not even the empty one, passes).

        Each degree value in use gets one cap in Python ints, exact for any
        denominator; a cap lies in [-k, deg], so the array is int64 when
        k <= 2^63 and holds Python ints otherwise.
        """
        num, den = self.alpha.numerator, self.alpha.denominator
        deg = g.degree_array
        present = np.flatnonzero(np.bincount(deg))
        table = np.zeros(int(deg.max(initial=0)) + 1,
                         dtype=np.int64 if self.k <= 2 ** 63 else object)
        table[present] = [min(num * d // den, d - self.k) for d in present.tolist()]
        return table[deg]

    def _admits(self, g: Graph, deg_h) -> bool:
        """True iff every deg_h[v] is within v's cap."""
        return bool((deg_h <= self.caps(g)).all())


def _h_degrees(g: Graph, h_edges: Iterable) -> np.ndarray:
    """deg_H(v) for every vertex of g; ValueError for a pair of h_edges
    that is not an edge of g."""
    us, vs = _pair_arrays(h_edges)
    member = _is_edge(g, np.minimum(us, vs), np.maximum(us, vs))
    if not member.all():
        i = int(np.argmin(member))
        raise ValueError(f"h contains ({us[i]}, {vs[i]}) which is not an edge of g")
    return incidence(g.n, us, vs)


def budget_allows(g: Graph, h_edges: Iterable, rule: BudgetRule) -> bool:
    """True iff the edge set h_edges respects the rule at every vertex."""
    return rule._admits(g, _h_degrees(g, h_edges))


@dataclass(frozen=True)
class Cut:
    """Attack certificate: optional separator S plus bipartition (A, B).

    S, A, B partition the vertex set; A and B are nonempty. The adversary
    subgraph is the set of A-B crossing edges.
    """

    separator: frozenset
    side_a: frozenset
    side_b: frozenset

    def __post_init__(self):
        if not self.side_a or not self.side_b:
            raise ValueError("cut sides must be nonempty")
        if (self.side_a & self.side_b or self.side_a & self.separator
                or self.side_b & self.separator):
            raise ValueError("separator and sides must be pairwise disjoint")


def crossing_edges(g: Graph, cut: Cut) -> tuple:
    """E_G(A, B), the adversary subgraph of the cut, in edge order."""
    return tuple(compress(g.edges, _crosses(g, _side_vector(g, cut)).tolist()))


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
    """Per-vertex deg_H(v) / deg_G(v) for vertices of positive degree;
    ValueError for a pair of h_edges that is not an edge of g."""
    deg_h = _h_degrees(g, h_edges).tolist()
    return {v: Fraction(deg_h[v], d)
            for v, d in enumerate(g.degree_array.tolist()) if d > 0}


@dataclass(frozen=True, eq=False)
class AttackOutcome:
    """A constructed cut with its verification bit; the adversary subgraph
    and its ratios follow from the cut (crossing_edges, attack_ratios).

    The outcome holds the final side vector, a read-only int64 array of 0
    (A) and 1 (B) that covers the vertices, and builds the Cut from it the
    first time ``cut`` is read. Two outcomes are equal iff their cuts,
    ``satisfied`` and diagnostics are.
    """

    _side: np.ndarray = field(repr=False)
    satisfied: bool
    diagnostics: dict = field(default_factory=dict, repr=False)

    @cached_property
    def cut(self) -> Cut:
        return Cut(frozenset(), *_sides(self._side))

    def __eq__(self, other):
        if not isinstance(other, AttackOutcome):
            return NotImplemented
        return (np.array_equal(self._side, other._side)
                and self.satisfied == other.satisfied
                and self.diagnostics == other.diagnostics)

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
    at = np.asarray(side, dtype=np.int8)  # gathers a third faster than int64
    return at[eu] + at[ev] == 1


def _side_vector(g: Graph, cut: Cut) -> np.ndarray:
    """The cut as a crossing_degrees side vector: 0 on A, 1 on B, -1 in
    the separator. ValueError unless its disjoint parts cover exactly
    0..n-1, that is, their sizes add up to n and ``_vertices`` reads each
    as vertices of g."""
    parts = (cut.separator, cut.side_a, cut.side_b)
    if sum(map(len, parts)) != g.n:
        raise ValueError("cut does not cover the graph's vertex set")
    side = np.full(g.n, -1, dtype=np.int64)
    for s, part in zip((-1, 0, 1), parts):
        side[_vertices(g.n, part, "cut vertices")] = s
    return side


def random_equipartition(n: int, rng) -> np.ndarray:
    """An int64 side vector splitting 0..n-1 uniformly at random: the last
    n - n//2 vertices of rng's permutation go to side B (1), the rest to A."""
    side = np.zeros(n, dtype=np.int64)
    side[rng.permutation(n)[n // 2:]] = 1
    return side


def crossing_degrees(g: Graph, side) -> np.ndarray:
    """cross[v], an int64 array: the neighbours of v on the other side of
    the cut.

    side[v] is 0 for side A, 1 for side B, and -1 for a separator or
    unplaced vertex, whose edges neither count nor are counted. The
    crossing edges are taken by position: a boolean mask index costs
    several times flatnonzero + take.
    """
    eu, ev = g._ends
    cut = np.flatnonzero(_crosses(g, side))
    return incidence(g.n, eu.take(cut), ev.take(cut))


def _equipartition_d_set(g: Graph, d_threshold, seed: int) -> tuple:
    """(side, d_set): the random equipartition of g seeded by ``seed``,
    and D, the ascending array of the vertices crossing more than
    d_threshold of its edges."""
    side = random_equipartition(g.n, generator(seed))
    return side, np.flatnonzero(crossing_degrees(g, side) > d_threshold)


def _sides(side) -> tuple:
    """(A, B) of a side vector."""
    side = np.asarray(side)
    return tuple(frozenset(np.flatnonzero(side == s).tolist()) for s in (0, 1))


def _bits(mask: int):
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _first_feasible_cut(g: Graph, caps: list, separator=()) -> Optional[Cut]:
    """The first bipartition of V - separator, in canonical order, whose
    crossing degrees all stay within caps. Separator vertices cross nothing,
    so they pass iff their cap is not negative.

    A depth-first search over side masks: bit j puts remaining[j] on side B,
    bit 0 stays on A, and bits r - 1 down to 1 are decided A before B, so the
    leaves come in ascending mask order. Placing j fails if j, or a vertex y
    on the other side, crosses more than its cap, or if j and y share more
    undecided neighbours (bits 1 .. j - 1) than their two slacks add up to:
    each of those will cross j or y.
    """
    remaining = [v for v in range(g.n) if v not in separator]
    if len(remaining) < 2 or min(caps) < 0:
        return None
    bit = {v: j for j, v in enumerate(remaining)}
    at, rows = _row_walk(g)
    nbr = [sum(1 << bit[u] for u in rows[at[v]:at[v + 1]] if u in bit)
           for v in remaining]
    cap = [caps[v] for v in remaining]

    def search(j: int, a: int, b: int) -> int:
        """The first feasible B mask below the placed sides a and b, else 0."""
        if j == 0:
            return b
        undecided = nbr[j] & ((1 << j) - 2)
        for same, other, on_b in ((a, b, False), (b, a, True)):
            same |= 1 << j
            slack = cap[j] - (nbr[j] & other).bit_count()
            if slack < 0:
                continue
            for y in _bits(other):
                left = cap[y] - (nbr[y] & same).bit_count()
                if left < 0 or (undecided & nbr[y]).bit_count() > slack + left:
                    break
            else:
                if found := search(j - 1, *((other, same) if on_b else (same, other))):
                    return found
        return 0

    side_b = frozenset(remaining[j] for j in _bits(search(len(remaining) - 1, 1, 0)))
    return Cut(frozenset(separator), frozenset(remaining) - side_b, side_b) if side_b else None


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
    return _first_feasible_cut(g, rule.caps(g).tolist())


def connectivity_resilience_threshold(g: Graph, mode: str = "exact",
                                      restarts: int = 32, seed: int = 0,
                                      ) -> ResilienceReport:
    """alpha* = min over nontrivial bipartitions of max_v cross(v)/deg(v).

    g fails fraction(alpha)-resilience w.r.t. connectivity iff alpha >=
    alpha*. Exact mode bisects the candidate ratios with one cut search per
    probe and returns an exact rational with the first witness in canonical
    order; local_search mode returns a seeded hill-climbing upper bound.
    ``restarts`` and ``seed`` are checked in either mode.
    """
    restarts = _integer("restarts", restarts, 1)
    _integer("seed", seed)
    if not is_connected(g):
        raise ValueError("threshold expects a connected graph")
    if g.n < 2:
        raise ValueError("threshold needs n >= 2")
    if mode == "exact":
        if g.n > EXACT_BIPARTITION_LIMIT:
            raise ValueError(f"n={g.n} exceeds exact-mode limit "
                             f"{EXACT_BIPARTITION_LIMIT}; use mode='local_search'")
        # alpha* is some c/d, d a degree: the least at which a cut fits
        ratios = sorted({Fraction(c, d) for d in set(g.degree_array.tolist())
                         for c in range(d + 1)})
        cuts = {}

        def fits(alpha):
            cuts[alpha] = _first_feasible_cut(g, BudgetRule(alpha).caps(g).tolist())
            return cuts[alpha] is not None

        # bisect_left probes the ratio it returns; the last one, 1, fits
        alpha_star = ratios[bisect_left(ratios, True, key=fits)]
        return ResilienceReport(alpha_star, cuts[alpha_star], "exact")
    if mode != "local_search":
        raise ValueError(f"unknown mode {mode!r}")
    return _local_search_threshold(g, restarts, seed)


def _local_search_threshold(g: Graph, restarts: int, seed: int) -> ResilienceReport:
    """Hill-climb single-vertex moves minimizing the max cross/deg ratio.

    Acceptance is lexicographic on (top, held): the max ratio and the number
    of vertices holding it, so the search can walk off plateaus where several
    vertices share the worst ratio. A flip that does not raise the top lowers
    (top, held) iff fewer of the moved vertices (v and its neighbours) sit at
    the top after it than before. near[w] counts the top vertices in w's
    closed neighbourhood, and only flips with near[v] > 0 are scored: any
    other moves no top vertex, so it cannot pass that test. A pass visits
    ``compress(range(n), near)``, which reads near[v] when it reaches v, so
    ``near`` stays one list per restart: it is all zero when no vertex is
    left at the top, and ``summit`` adds the new top's counts into it.

    Flips are scored in integers against the top a/b. A vertex of degree d
    and crossing degree c is within the top iff c <= lim[d] = d*a // b, and
    at it iff c == at[d], which is lim[d] when b divides d*a and -1 (no
    crossing degree) otherwise. Every vertex is within the top, so a
    neighbour on the other side, dropping to c - 1, cannot reach it, and a
    neighbour on v's side, rising to c + 1, raises the top iff c == lim[d].
    The top is the largest float quotient cross/deg: quotients are
    correctly rounded and every degree is below 10^6, so equal floats are
    equal rationals and the largest float is a true maximum.

    Each restart divides its crossing_degrees array by the degrees once,
    into the numpy copy ``ratio``. An accepted flip changes cross only at v
    and its neighbours, and appends them to ``moved``; a summit writes just
    those quotients back into ``ratio`` before taking its max. Each is the
    same IEEE division of the same two ints as numpy's, so ``ratio`` stays
    bit-identical to cross/deg taken afresh.
    """
    n, deg_arr = g.n, g.degree_array
    deg = deg_arr.tolist()
    degree_values = range(int(deg_arr.max()) + 1)
    # the rows, read many times: plain slices of one list of the neighbours
    bounds, nbrs = g.indptr.tolist(), g.indices.tolist()
    rows = [nbrs[a:b] for a, b in zip(bounds, bounds[1:])]

    def summit(ratio, cross, moved, near):
        """(top, lim, at, held) of a crossing-degree list; adds the counts
        of the top vertices into ``near``, which must be all zero. The top
        is read off ``ratio`` once the quotients of ``moved``, the vertices
        whose cross changed since the last summit, are written back."""
        if moved:
            ratio[moved] = [cross[u] / deg[u] for u in moved]
            moved.clear()
        tops = np.flatnonzero(ratio == ratio.max()).tolist()
        top = Fraction(cross[tops[0]], deg[tops[0]])
        a, b = top.numerator, top.denominator
        lim = [d * a // b for d in degree_values]
        at = [c if d * a % b == 0 else -1 for d, c in enumerate(lim)]
        for u in tops:
            near[u] += 1
            for w in rows[u]:
                near[w] += 1
        return top, lim, at, len(tops)

    best = None  # (max_ratio Fraction, cut)
    for r in range(restarts):
        side = random_equipartition(n, generator(seed, r))
        on_b = n - n // 2
        cross = crossing_degrees(g, side)
        ratio = cross / deg_arr
        side, cross, moved = side.tolist(), cross.tolist(), []
        near = [0] * n
        top, lim, at, held = summit(ratio, cross, moved, near)
        improved = True
        passes = 0
        while improved and passes < 64:
            improved = False
            passes += 1
            for v in compress(range(n), near):
                s = side[v]
                if (s == 1 and on_b == 1) or (s == 0 and on_b == n - 1):
                    continue  # the flip would empty a side
                # flipping v: its own cross complements, neighbours shift by 1
                d = deg[v]
                c = d - cross[v]
                if c > lim[d]:
                    continue  # the top would rise
                # +1 where a moved vertex reaches the top, -1 where it leaves
                own = (c == at[d]) - (cross[v] == at[d])
                gain = own
                for u in rows[v]:
                    if side[u] != s:
                        gain -= cross[u] == at[deg[u]]
                    elif cross[u] < lim[deg[u]]:
                        gain += cross[u] + 1 == at[deg[u]]
                    else:
                        gain = 0  # the top would rise: reject
                        break
                if gain >= 0:
                    continue  # no fewer vertices at the top than before
                side[v] = 1 - s
                on_b += 1 if s == 0 else -1
                held += gain
                cross[v] = c
                moved.append(v)
                moved += rows[v]
                if own:
                    near[v] += own
                    for w in rows[v]:
                        near[w] += own
                for u in rows[v]:
                    if side[u] == s:
                        cross[u] += 1
                        shift = cross[u] == at[deg[u]]
                    else:
                        shift = -(cross[u] == at[deg[u]])
                        cross[u] -= 1
                    if shift:
                        near[u] += shift
                        for w in rows[u]:
                            near[w] += shift
                if not held:
                    top, lim, at, held = summit(ratio, cross, moved, near)
                improved = True
        if best is None or top < best[0]:
            best = (top, side)
    return ResilienceReport(best[0], Cut(frozenset(), *_sides(best[1])),
                            "local-search-upper-bound")


def find_k_conn_attack(g: Graph, rule: BudgetRule, k: int) -> Optional[Cut]:
    """Exact search for (S, A, B) with |S| <= k-1 and budget-feasible
    crossing edges: a certificate that g is not rule-resilient w.r.t.
    k-connectivity. None iff no certificate exists.
    """
    k = _integer("k", k, 1)
    if not is_k_connected(g, k):
        raise ValueError("attack expects a k-connected input graph")
    if g.n > EXACT_SEPARATOR_LIMIT:
        raise ValueError(f"n={g.n} exceeds the exact separator-mode limit "
                         f"{EXACT_SEPARATOR_LIMIT}")
    caps = rule.caps(g).tolist()
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
    deg = g.degree_array
    centres = np.flatnonzero(deg == 3)
    # rows[i]: the three neighbours of centres[i]; a row with two leaves
    # and a vertex of degree > 1 is a cherry, and that vertex is d
    rows = g.indices[g.indptr[centres][:, None] + np.arange(3)]
    anchor = deg[rows] > 1
    hits = np.flatnonzero(anchor.sum(axis=1) == 1)
    if not len(hits):
        return None
    c, d = int(centres[hits[0]]), int(rows[hits[0]][anchor[hits[0]]][0])
    return (c, d) if c < d else (d, c)


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

    A sweep visits the vertices in ascending order; its worklist makes the
    same moves in the same order, since a vertex off the worklist is within
    its cap and a visit would not move it. The worklist is a heap of the
    vertices over their caps at the sweep's start, popped in ascending
    order with each cap rechecked. A move raises only its same-side
    neighbours' crossing degrees; one that crosses its cap joins this
    sweep's heap if it comes after the mover, else the next sweep's
    worklist, as does a mover still over its cap.

    The returned outcome holds the final side vector, and builds its cut
    only when read. Its ``satisfied`` flag is the BudgetRule(1/2 + epsilon)
    test of that vector: every crossing degree is within
    floor((1/2 + epsilon) * deg), as ``replay_cut`` finds for the cut.
    """
    if cls.n != g.n:
        raise ValueError(f"classification universe {cls.n} does not match "
                         f"graph on {g.n} vertices")
    eps = _fraction("epsilon", epsilon, 0, Fraction(1, 2), "()")
    _real("d_threshold", d_threshold)
    if g.n < 2:
        raise ValueError("attack needs at least two vertices")

    side, d_set = _equipartition_d_set(g, d_threshold, seed)
    tiny = cls.tiny_mask
    drop = cls.atyp_mask.copy()
    drop[d_set] = True
    removed = np.flatnonzero(drop)
    # the non-tiny first, then the tiny, each in ascending order
    insertion = removed[np.argsort(tiny[removed], kind="stable")]
    side[drop] = -1
    side[insertion] = _majority_sides(g, side, insertion)

    # star budgets: deg/2 on tiny vertices, (1/2 + epsilon) deg elsewhere;
    # slack[v] = cap - cross is negative iff v is over its cap, and a move
    # turns it into turn[v] - slack[v]
    caps = np.where(tiny, BudgetRule(Fraction(1, 2)).caps(g),
                    BudgetRule(Fraction(1, 2) + eps).caps(g))
    slack = caps - crossing_degrees(g, side)
    pending = np.flatnonzero(slack < 0).tolist()
    slack, turn = slack.tolist(), (2 * caps - g.degree_array).tolist()
    side_of = side.tolist()
    at, rows = _row_walk(g)

    moves = sweeps = 0
    while True:
        sweeps += 1
        if sweeps > g.n:
            raise RearrangementOverflowError(
                f"rearrangement did not converge within {g.n} sweeps",
                partial_sides=_sides(side),
                diagnostics={"moves": moves, "sweeps": sweeps,
                             "removed": len(removed)})
        heap, pending, last = pending, set(), -1
        moved = False
        while heap:
            v = heappop(heap)
            if v == last or slack[v] >= 0:
                continue
            last = v
            s = side_of[v]
            side_of[v] = side[v] = 1 - s
            slack[v] = turn[v] - slack[v]
            if slack[v] < 0:
                pending.add(v)
            for u in rows[at[v]:at[v + 1]]:
                if side_of[u] != s:
                    slack[u] += 1
                else:
                    slack[u] -= 1
                    if slack[u] == -1:
                        if u > v:
                            heappush(heap, u)
                        else:
                            pending.add(u)
            moves += 1
            moved = True
        if not moved:
            break
        pending = sorted(pending)

    diagnostics = {"moves": moves, "sweeps": sweeps, "removed": len(removed),
                   "d_set": len(d_set), "d_threshold": d_threshold,
                   "epsilon": str(eps)}
    if not 0 < side.sum() < g.n:
        raise PartitionCollapsedError(
            f"partition collapsed to one side (moves={moves}, "
            f"removed={len(removed)}); the input is outside the regime "
            f"where the construction converges")
    satisfied = BudgetRule(Fraction(1, 2) + eps)._admits(g, crossing_degrees(g, side))
    side.flags.writeable = False
    return AttackOutcome(side, satisfied=satisfied, diagnostics=diagnostics)


def _majority_sides(g: Graph, side: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The sides the unplaced vertices ``order`` (side -1) take when each
    in turn joins the majority side of its placed neighbours, ties to A.

    lead[i] is order[i]'s placed neighbours on A minus those on B; then
    each edge i < j between unplaced vertices, in ascending i, adds
    order[i]'s vote to lead[j]. The edges into i come before those out of
    it, so lead[i] is final when read.
    """
    deg = g.degree_array[order]
    nbrs = g.indices[_row_positions(g, order)]
    # +1 for a neighbour on A, -1 on B, summed row by row from prefix sums
    vote = ((side == 0).astype(np.int64) - (side == 1))[nbrs]
    prefix = np.concatenate(([0], np.cumsum(vote)))
    ends = np.cumsum(deg)
    lead = (prefix[ends] - prefix[ends - deg]).tolist()
    rank = np.full(g.n, -1, dtype=np.int64)
    rank[order] = np.arange(len(order))
    # the edges i < j between unplaced vertices, by insertion rank
    row, col = np.repeat(np.arange(len(order)), deg), rank[nbrs]
    later = np.flatnonzero(col > row)
    for i, j in zip(row[later].tolist(), col[later].tolist()):
        lead[j] += 1 if lead[i] >= 0 else -1
    return (np.array(lead, dtype=np.int64) < 0).astype(np.int64)


def replay_cut(g: Graph, cut: Cut, rule: BudgetRule) -> dict:
    """Self-verification of a certificate: recount deg_H from the cut and
    check the budget. Removing H and the separator always disconnects a cut
    that covers g, since A and B are nonempty and H is every A-B edge.
    Every cap is at most deg - k, so a cut within budget keeps degree k
    and ``valid`` is the budget verdict.
    """
    deg_h = crossing_degrees(g, _side_vector(g, cut))
    allowed = rule._admits(g, deg_h)
    return {
        "budget_allowed": allowed,
        "disconnects": True,
        "keep_degree_ok": bool((g.degree_array - deg_h >= rule.k).all()),
        "valid": allowed,
        "h_size": int(deg_h.sum()) // 2,
    }
