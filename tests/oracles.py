"""Independent brute-force oracles used to validate the package.

These deliberately avoid the bipartition characterization the library uses:
attack existence is decided by enumerating adversary edge subsets H directly
(include/exclude branch and bound with sound prunes), and k-connectivity by
enumerating separators. Prunes are justified by monotonicity only:
feasibility is downward closed in H, disconnection is upward closed.

The structural audits of ``classify`` are recounted from plain adjacency
sets built from ``g.edges``, without the library's ``ball``,
``classify_vertices`` or triangle enumeration.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter, deque
from dataclasses import fields
from fractions import Fraction
from itertools import accumulate, combinations, permutations

import numpy as np

from process_resilience.experiments import TrialRecord
from process_resilience.graphs import Graph, build_graph
from process_resilience.process import pair_count
from process_resilience.resilience import (PartitionCollapsedError,
                                           RearrangementOverflowError)
from process_resilience.rng import generator


# -- connectivity of bitmask-encoded graphs -------------------------------

def _connected_on_mask(adj_masks, vmask: int) -> bool:
    """Is the graph induced on vmask (adjacency as bitmasks) connected?"""
    if vmask == 0:
        return False
    start = vmask & -vmask
    reached = start
    frontier = start
    while frontier:
        nxt = 0
        m = frontier
        while m:
            bit = m & -m
            v = bit.bit_length() - 1
            nxt |= adj_masks[v] & vmask
            m ^= bit
        nxt &= ~reached
        reached |= nxt
        frontier = nxt
    return reached == vmask


def is_k_connected_oracle(g: Graph, k: int) -> bool:
    """Literal definition: n >= k+1 and no <= (k-1)-subset disconnects."""
    if g.n < k + 1:
        return False
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << g.n) - 1
    for size in range(k):
        for sep in combinations(range(g.n), size):
            vmask = full
            for s in sep:
                vmask &= ~(1 << s)
            if not _connected_on_mask(adj, vmask):
                return False
    return True


def split_network_flow(g: Graph, sources, source: int, sink: int,
                       inner_caps) -> int:
    """Maximum source->sink flow in Even's split-vertex network of g.

    Node 2v -> 2v+1 is vertex v's inner arc, of capacity ``inner_caps.get(v,
    1)``; edge uv gives unit arcs 2u+1 -> 2v and 2v+1 -> 2u; node 2n has a
    unit arc to 2s for each s in ``sources``. The network is a nested dict
    of residual capacities, augmented by one-directional breadth-first
    searches (Edmonds-Karp) until the sink is unreachable.
    """
    residual = {x: {} for x in range(2 * g.n + 1)}

    def arc(x, y, c):
        residual[x][y] = residual[x].get(y, 0) + c
        residual[y].setdefault(x, 0)

    for v in range(g.n):
        arc(2 * v, 2 * v + 1, inner_caps.get(v, 1))
    for u, v in g.edges:
        arc(2 * u + 1, 2 * v, 1)
        arc(2 * v + 1, 2 * u, 1)
    for s in sources:
        arc(2 * g.n, 2 * s, 1)
    flow = 0
    while True:
        parent = {source: None}
        queue = [source]
        for x in queue:
            for y, c in residual[x].items():
                if c > 0 and y not in parent:
                    parent[y] = x
                    queue.append(y)
        if sink not in parent:
            return flow
        y = sink
        while parent[y] is not None:
            x = parent[y]
            residual[x][y] -= 1
            residual[y][x] += 1
            y = x
        flow += 1


def split_network_arcs(g: Graph, sources):
    """(head, base, out) of Even's split-vertex network, added arc by arc:
    the inner arc of each vertex, then the two arcs of each edge in
    lexicographic order, then a super-source arc to each of ``sources``.
    Every arc e gets its reverse e ^ 1 and is appended to the list of
    arcs out of its tail as it is added."""
    head, base = [], []
    out = [[] for _ in range(2 * g.n + 1)]

    def add_arc(x, y):
        out[x].append(len(head))
        head.append(y)
        base.append(1)
        out[y].append(len(head))
        head.append(x)
        base.append(0)

    for v in range(g.n):
        add_arc(2 * v, 2 * v + 1)
    for u, v in g.edges:
        add_arc(2 * u + 1, 2 * v)
        add_arc(2 * v + 1, 2 * u)
    for s in sources:
        add_arc(2 * g.n, 2 * s)
    return head, base, out


def peel_k_core_random_order(g: Graph, k: int, order) -> set:
    """Single-vertex peeling in the given vertex priority order; returns the
    surviving vertex set (independent oracle for k_core).
    """
    adj = adjacency_sets(g)
    alive = set(range(g.n))
    deg = [len(nbrs) for nbrs in adj]
    changed = True
    while changed:
        changed = False
        for v in order:
            if v in alive and deg[v] < k:
                alive.discard(v)
                for u in adj[v]:
                    if u in alive:
                        deg[u] -= 1
                changed = True
    return alive


# -- attack-existence oracles ---------------------------------------------

def budget_caps(g: Graph, alpha, keep_degree=None):
    """Exact per-vertex caps floor(alpha*deg) (optionally min'd with deg-k)."""
    num, den = alpha.numerator, alpha.denominator
    deg = degrees_by_pairs(g.n, g.edges)
    caps = [num * d // den for d in deg]
    if keep_degree is not None:
        caps = [min(c, d - keep_degree) for c, d in zip(caps, deg)]
    return caps


def _component_size_bound_admits_split(kept_min_degrees, n: int, slack: int) -> bool:
    """Can a disconnection exist at all, by degree counting alone?

    Any split needs a side of size s <= n/2 all of whose vertices keep
    degree <= s - 1 + slack (slack = separator room). Sound shortcut only.
    """
    for s in range(1, n // 2 + 1):
        if sum(1 for d in kept_min_degrees if d <= s - 1 + slack) >= s:
            return True
    return False


def exists_disconnecting_h(g: Graph, caps) -> bool:
    """Does any edge subset H with deg_H(v) <= caps[v] disconnect g?

    Branch and bound over edges: at each node, if removing the current H
    alone (keeping everything undecided) already disconnects, succeed; if
    the decided-kept edges alone keep the graph connected, no extension of
    this node can disconnect, so prune.
    """
    if any(c < 0 for c in caps):
        return False
    n, m = g.n, g.m
    deg = degrees_by_pairs(n, g.edges)
    if not _component_size_bound_admits_split(
            [deg[v] - caps[v] for v in range(n)], n, 0):
        return False
    edges = list(g.edges)
    full = (1 << n) - 1

    suffix = [[0] * n for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        u, v = edges[i]
        row = suffix[i + 1]
        mine = suffix[i]
        mine[:] = row
        mine[u] = row[u] | (1 << v)
        mine[v] = row[v] | (1 << u)

    kept = [0] * n
    deg_h = [0] * n

    def rec(i: int) -> bool:
        merged = [kept[x] | suffix[i][x] for x in range(n)]
        if not _connected_on_mask(merged, full):
            return True  # current H (decided-included edges) disconnects
        if _connected_on_mask(kept, full):
            return False  # kept edges alone keep it connected forever
        u, v = edges[i]  # i < m here, else one test above decided
        if deg_h[u] < caps[u] and deg_h[v] < caps[v]:
            deg_h[u] += 1
            deg_h[v] += 1
            if rec(i + 1):
                return True
            deg_h[u] -= 1
            deg_h[v] -= 1
        kept[u] |= 1 << v
        kept[v] |= 1 << u
        found = rec(i + 1)
        kept[u] &= ~(1 << v)
        kept[v] &= ~(1 << u)
        return found

    return rec(0)


def exists_disconnecting_h_literal(g: Graph, caps) -> bool:
    """Plain 2^m enumeration; for cross-checking the pruned oracle."""
    if any(c < 0 for c in caps):
        return False
    n, m = g.n, g.m
    edges = list(g.edges)
    full = (1 << n) - 1
    for mask in range(1 << m):
        deg_h = [0] * n
        ok = True
        for i in range(m):
            if mask >> i & 1:
                u, v = edges[i]
                deg_h[u] += 1
                deg_h[v] += 1
                if deg_h[u] > caps[u] or deg_h[v] > caps[v]:
                    ok = False
                    break
        if not ok:
            continue
        adj = [0] * n
        for i in range(m):
            if not mask >> i & 1:
                u, v = edges[i]
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        if not _connected_on_mask(adj, full):
            return True
    return False


def exists_kconn_attack_h(g: Graph, caps, k: int) -> bool:
    """Does any feasible H admit a separator S, |S| <= k-1, such that
    (G - H) - S is disconnected?

    Decomposes over separators: H-edges incident to S consume budget
    without affecting (G - H)[V \\ S], so by downward closure of
    feasibility a certificate exists iff for some S a feasible subset of
    E(G[V \\ S]) disconnects G[V \\ S]. Each inner question goes to the
    connectivity branch-and-bound with the caps inherited from G's degrees.
    """
    if any(c < 0 for c in caps):
        return False
    n = g.n
    deg = degrees_by_pairs(n, g.edges)
    kept_min = [deg[v] - caps[v] for v in range(n)]
    if not _component_size_bound_admits_split(kept_min, n, k - 1):
        return False
    for size in range(k):
        for sep in combinations(range(n), size):
            sep_set = set(sep)
            survivors = [v for v in range(n) if v not in sep_set]
            if len(survivors) < 2:
                continue
            # vertex i of the subgraph is survivors[i]: its labels point
            # past g when g is itself a labelled giant or core
            sub = induced_subgraph_by_edges(g, survivors)
            if exists_disconnecting_h(sub, [caps[v] for v in survivors]):
                return True
    return False


def exists_kconn_attack_h_literal(g: Graph, caps, k: int) -> bool:
    """Plain 2^m x separators enumeration; cross-checks the decomposition."""
    if any(c < 0 for c in caps):
        return False
    n, m = g.n, g.m
    edges = list(g.edges)
    full = (1 << n) - 1
    sep_masks = [0]
    for size in range(1, k):
        for sep in combinations(range(n), size):
            mask = 0
            for v in sep:
                mask |= 1 << v
            sep_masks.append(mask)
    for hmask in range(1 << m):
        deg_h = [0] * n
        ok = True
        for i in range(m):
            if hmask >> i & 1:
                u, v = edges[i]
                deg_h[u] += 1
                deg_h[v] += 1
                if deg_h[u] > caps[u] or deg_h[v] > caps[v]:
                    ok = False
                    break
        if not ok:
            continue
        adj = [0] * n
        for i in range(m):
            if not hmask >> i & 1:
                u, v = edges[i]
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        if any(not _connected_on_mask(adj, full & ~s) for s in sep_masks):
            return True
    return False


# -- canonical cut witnesses ----------------------------------------------
#
# The library reports the first witness in a fixed order, so these slow
# references walk that order from its definition: drop the separator, pin
# the smallest remaining vertex to side A, and take the B sides among the
# other remaining vertices in ascending bitmask order (bit i stands for the
# i-th of them in increasing vertex order).

def _bipartitions_in_mask_order(n: int, separator):
    remaining = sorted(frozenset(range(n)) - frozenset(separator))
    others = remaining[1:]
    for mask in range(1, 1 << len(others)):
        side_b = frozenset(v for i, v in enumerate(others) if mask >> i & 1)
        yield frozenset(remaining) - side_b, side_b


def crossing_counts(g: Graph, side_a, side_b) -> Counter:
    """counts[v]: edges of g from v to the other side, one edge at a time."""
    counts = Counter()
    for u, v in g.edges:
        if (u in side_a and v in side_b) or (u in side_b and v in side_a):
            counts[u] += 1
            counts[v] += 1
    return counts


def star_condition_holds(g: Graph, side_a, side_b, epsilon) -> bool:
    """cross(v) <= (1/2 + epsilon) deg(v) at every vertex, compared as
    2 q cross <= (q + 2 p) deg for epsilon = p / q."""
    eps = Fraction(epsilon)
    p, q = eps.numerator, eps.denominator
    counts = crossing_counts(g, side_a, side_b)
    degree = Counter()
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
    return all(2 * q * counts[v] <= (q + 2 * p) * degree[v] for v in range(g.n))


def first_cut_in_mask_order(g: Graph, caps, separator=()):
    """(S, A, B) for the first bipartition (A, B) of V - S in canonical
    order whose crossing degrees all stay within caps, else None."""
    for side_a, side_b in _bipartitions_in_mask_order(g.n, separator):
        counts = crossing_counts(g, side_a, side_b)
        if all(counts[v] <= caps[v] for v in range(g.n)):
            return frozenset(separator), side_a, side_b
    return None


def min_max_ratio_cut(g: Graph):
    """(alpha*, A, B): the least max_v cross(v)/deg(v) over the
    bipartitions of V, and the first bipartition in canonical order that
    reaches it."""
    degree = Counter()
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
    best = None
    for side_a, side_b in _bipartitions_in_mask_order(g.n, ()):
        counts = crossing_counts(g, side_a, side_b)
        worst = max((Fraction(counts[v], d) for v, d in degree.items()),
                    default=Fraction(0))
        if best is None or worst < best[0]:
            best = (worst, side_a, side_b)
    return best


def removal_disconnects(g: Graph, separator, side_a, side_b) -> bool:
    """Does deleting the separator and every A-B edge leave G disconnected?
    Rebuilds the remaining graph edge by edge and searches it from one
    vertex."""
    removed = frozenset(separator)
    adj = {v: set() for v in range(g.n) if v not in removed}
    for u, v in g.edges:
        crossing = (u in side_a and v in side_b) or (u in side_b and v in side_a)
        if u in adj and v in adj and not crossing:
            adj[u].add(v)
            adj[v].add(u)
    if not adj:
        return False
    start = min(adj)
    seen = {start}
    stack = [start]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) < len(adj)


def local_search_threshold_reference(g: Graph, restarts: int, seed: int):
    """(upper bound, A, B) of the local-search threshold, scored the slow
    way: every candidate flip copies the whole crossing vector and
    recomputes (max ratio, number of vertices within 1e-12 of it) with
    numpy. Same seeded starts, visiting order, guards and 64-pass cap as the
    library."""
    adj = adjacency_sets(g)
    deg = np.array([len(nbrs) for nbrs in adj], dtype=np.int64)
    safe_deg = np.maximum(deg, 1)

    def objective(cross):
        ratios = cross / safe_deg
        top = ratios.max()
        return (top, int((ratios >= top - 1e-12).sum()))

    best = None
    for r in range(restarts):
        perm = generator(seed, r).permutation(g.n)
        side = np.zeros(g.n, dtype=np.int8)
        side[perm[g.n // 2:]] = 1
        counts = crossing_counts(g, frozenset(np.flatnonzero(side == 0).tolist()),
                                 frozenset(np.flatnonzero(side == 1).tolist()))
        cross = np.array([counts[v] for v in range(g.n)], dtype=np.int64)
        cur = objective(cross)
        improved = True
        passes = 0
        while improved and passes < 64:
            improved = False
            passes += 1
            for v in range(g.n):
                new_cross = cross.copy()
                new_cross[v] = deg[v] - cross[v]
                nbrs = np.fromiter(adj[v], dtype=np.int64, count=deg[v])
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
        if best is None or ratio < best[0]:
            best = (ratio, frozenset(np.flatnonzero(side == 0).tolist()),
                    frozenset(np.flatnonzero(side == 1).tolist()))
    return best


def greedy_attack_reference(g: Graph, tiny, atyp, d_threshold, epsilon, seed: int):
    """The greedy partition attack by full scans over adjacency sets: the
    same seeded equipartition, D, reinsertion order and sweeps as the
    library, with every placed neighbour recounted at each insertion and
    every crossing degree recounted at each visit of a sweep. Returns a
    dict of side_a, side_b, moves, sweeps and satisfied, or the AttackError
    subclass the construction ends in."""
    n = g.n
    adj = adjacency_sets(g)
    side = [0] * n
    for v in generator(seed).permutation(n)[n // 2:].tolist():
        side[v] = 1

    def cross(v):
        return sum(side[u] != side[v] for u in adj[v])

    removed = sorted({v for v in range(n) if cross(v) > d_threshold} | set(atyp))
    for v in removed:
        side[v] = -1
    for v in ([v for v in removed if v not in tiny] + [v for v in removed if v in tiny]):
        placed = [side[u] for u in adj[v]]
        side[v] = 0 if placed.count(0) >= placed.count(1) else 1

    alpha = Fraction(1, 2) + Fraction(epsilon)
    cap = [len(adj[v]) // 2 if v in tiny else math.floor(alpha * len(adj[v]))
           for v in range(n)]
    moves = sweeps = 0
    moved = True
    while moved:
        sweeps += 1
        if sweeps > n:
            return RearrangementOverflowError
        moved = False
        for v in range(n):
            if cross(v) > cap[v]:
                side[v] = 1 - side[v]
                moves += 1
                moved = True
    side_a = frozenset(v for v in range(n) if side[v] == 0)
    side_b = frozenset(range(n)) - side_a
    if not side_a or not side_b:
        return PartitionCollapsedError
    return {"side_a": side_a, "side_b": side_b, "moves": moves, "sweeps": sweeps,
            "satisfied": star_condition_holds(g, side_a, side_b, epsilon)}


# -- tuple graph construction ----------------------------------------------

def graph_from_pairs(n: int, pairs, labels=None) -> Graph:
    """The library's original tuple constructor: sorted edges and sorted
    adjacency rows from Python lists, one pair at a time. Pairs must be
    distinct, in range and loop-free. Its CSR arrays are those rows laid
    end to end, and its endpoint arrays are its own sorted edge list."""
    edges = sorted((u, v) if u < v else (v, u) for u, v in pairs)
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    rows = tuple(tuple(sorted(a)) for a in adj)
    indptr = np.array([0] + list(accumulate(map(len, rows))), dtype=np.int64)
    indices = np.array([v for row in rows for v in row], dtype=np.int64)
    ends = tuple(np.array(edges, dtype=np.int64).reshape(-1, 2).T.copy())
    for a in (indptr, indices, *ends):
        a.setflags(write=False)
    return Graph(n, indptr, indices, ends, labels)


def graph_from_ranks(n: int, ranks, labels=None) -> Graph:
    """The tuple constructor of the pairs at the lexicographic ranks
    ``ranks``, each decoded by walking the rows of the upper triangle: the
    reference for ``graphs._graph_from_ranks``."""
    return graph_from_pairs(n, [_pair_from_rank(n, r) for r in ranks], labels)


def degrees_by_pairs(n: int, pairs) -> tuple:
    """deg[v], counted one pair at a time: a repeated pair counts each
    time, and a loop (v, v) twice."""
    deg = [0] * n
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
    return tuple(deg)


def components_by_pairs(n: int, pairs) -> list:
    """Components of the graph on 0..n-1 with the given pairs, as vertex
    sets, largest first, ties by smallest vertex: union-find, one pair at a
    time."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        parent[max(ru, rv)] = min(ru, rv)
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), set()).add(v)
    return sorted(map(frozenset, groups.values()), key=lambda c: (-len(c), min(c)))


def first_cherry(g: Graph):
    """The cherry edge of the smallest degree-3 vertex c with two leaf
    neighbours and one other, scanned vertex by vertex on adjacency sets
    built from the edge list; None if there is none."""
    adj = adjacency_sets(g)
    for c in range(g.n):
        if len(adj[c]) == 3:
            anchors = [u for u in adj[c] if len(adj[u]) > 1]
            if len(anchors) == 1:
                return tuple(sorted((c, anchors[0])))
    return None


def induced_subgraph_by_edges(g: Graph, vertices) -> Graph:
    """Induced subgraph by relabelling g.edges one edge at a time."""
    keep = sorted(set(vertices))
    index = {v: i for i, v in enumerate(keep)}
    pairs = [(index[u], index[v]) for u, v in g.edges
             if u in index and v in index]
    labels = tuple(g.original_label(v) for v in keep)
    return graph_from_pairs(len(keep), pairs, labels)


# -- structural-audit recounts --------------------------------------------

def adjacency_sets(g: Graph):
    """adj[v] as a plain set, built from the edge list alone."""
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def csr_rows(g: Graph) -> list:
    """Row v of g's CSR arrays as a tuple, for every v."""
    return [tuple(g.indices[g.indptr[v]:g.indptr[v + 1]].tolist()) for v in range(g.n)]


def cached_views(g: Graph) -> set:
    """The names g has cached beyond its dataclass fields."""
    return set(vars(g)) - {f.name for f in fields(g)}


def ball_by_bfs(g: Graph, v: int, radius: int) -> frozenset:
    """The vertices at distance 1..radius from v: a breadth-first search
    over adjacency sets that records each vertex's distance."""
    adj = adjacency_sets(g)
    dist = {v: 0}
    queue = deque([v])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return frozenset(y for y, d in dist.items() if 1 <= d <= radius)


def small_subset_counts(g: Graph):
    """(X, e(X)) for every vertex subset X of size 2, 3 and 4, in
    ``combinations`` order, each counted pair by pair."""
    adj = adjacency_sets(g)
    for s in (2, 3, 4):
        for X in combinations(range(g.n), s):
            yield X, sum(1 for a, b in combinations(X, 2) if b in adj[a])


def degree_classes(g: Graph, p: float, delta: float):
    """(tiny, atyp) from the degree sequence: with scale n*p, tiny means
    d < delta*n*p and atyp means d outside [(1-delta)*n*p, (1+delta)*n*p]."""
    deg = [0] * g.n
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    scale = g.n * p
    lo, hi = (1.0 - delta) * scale, (1.0 + delta) * scale
    tiny = frozenset(v for v, d in enumerate(deg) if d < delta * scale)
    atyp = frozenset(v for v, d in enumerate(deg) if not lo <= d <= hi)
    return tiny, atyp


def tiny_ball_counts(g: Graph, tiny, radius: int = 3):
    """counts[v] = number of tiny u with 1 <= dist(u, v) <= radius.

    Distance is symmetric, so one depth-limited BFS from each tiny vertex
    credits every vertex in its punctured ball.
    """
    adj = adjacency_sets(g)
    counts = [0] * g.n
    for t in tiny:
        dist = {t: 0}
        frontier = [t]
        for d in range(1, radius + 1):
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = d
                        nxt.append(y)
            frontier = nxt
        for y in dist:
            if y != t:
                counts[y] += 1
    return counts


def atyp_neighbour_counts(g: Graph, atyp):
    """counts[v] = number of atypical neighbours of v."""
    return [len(nbrs & atyp) for nbrs in adjacency_sets(g)]


def tiny_triangles(g: Graph, tiny):
    """{(u, v, w): number of tiny corners} over every triangle u < v < w
    with at least one tiny corner, found from the tiny corners' neighbours."""
    adj = adjacency_sets(g)
    out = {}
    for t in tiny:
        for a, b in combinations(sorted(adj[t]), 2):
            if b in adj[a]:
                tri = tuple(sorted((t, a, b)))
                out[tri] = sum(1 for x in tri if x in tiny)
    return out


def recount_audits(g_plus: Graph, tiny, atyp, L: int):
    """Expected holds, max_observed, bound and violations of the four
    structural audits on g_plus for the given classes, keyed by property id.

    Bounds: at most 2 tiny vertices in a punctured radius-3 ball, at most L
    atypical neighbours, at most 1 tiny corner per triangle, and
    |atyp| <= n / ln n.
    """
    def outcome(max_observed, bound, violations):
        return {"holds": not violations, "max_observed": float(max_observed),
                "bound": float(bound), "violations": violations}

    balls = tiny_ball_counts(g_plus, tiny)
    nbrs = atyp_neighbour_counts(g_plus, atyp)
    tris = tiny_triangles(g_plus, tiny)
    n = g_plus.n
    size_bound = n / math.log(n)
    return {
        "tiny-3ball": outcome(
            max(balls, default=0), 2,
            [{"vertex": v, "measured": c, "bound": 2}
             for v, c in enumerate(balls) if c > 2]),
        "atyp-neighbourhood": outcome(
            max(nbrs, default=0), L,
            [{"vertex": v, "measured": c, "bound": L}
             for v, c in enumerate(nbrs) if c > L]),
        "triangle-tiny": outcome(
            max(tris.values(), default=0), 1,
            [{"triangle": list(tri), "measured": c, "bound": 1}
             for tri, c in sorted(tris.items()) if c > 1]),
        "atyp-size": outcome(
            len(atyp), size_bound,
            [{"set": "atyp", "measured": len(atyp), "bound": size_bound}]
            if len(atyp) > size_bound else []),
    }


def audit_outcome(report):
    """The fields of an AuditReport that recount_audits predicts."""
    payload = report.to_json_dict()
    return {key: payload[key]
            for key in ("holds", "max_observed", "bound", "violations")}


# -- the v1 pair stream, walked step by step ------------------------------

def index_from_pair(n: int, u: int, v: int) -> int:
    """Lexicographic rank of the pair (u, v), u < v, in the upper triangle:
    the reference for ``process._pairs_from_indices``."""
    if u > v:
        u, v = v, u
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def stream_indices(n: int, seed: int, m: int) -> list:
    """Pair indices of the first m arrivals of the v1 stream of (n, seed).

    The partial Fisher-Yates shuffle, one step at a time: step i reads the
    i-th double u of ``generator(seed)`` and swaps position i with
    j = i + int(u (N - i)) through a swap map, in which a position never
    written holds itself.
    """
    N = pair_count(n)
    swap, picked = {}, []
    for i, u in enumerate(generator(seed).random(m).tolist()):
        j = i + int(u * (N - i))
        picked.append(swap.get(j, j))
        swap[j] = swap.pop(i, i)
    return picked


def repeated_positions_by_argsort(values) -> list:
    """The positions whose value occurs more than once in ``values``,
    ascending: the neighbours of each equal pair of a stable argsort."""
    values = np.asarray(values, dtype=np.int64)
    order = np.argsort(values, kind="stable")
    same = values[order][1:] == values[order][:-1]
    flag = np.zeros(len(values), dtype=bool)
    flag[order[1:][same]] = True
    flag[order[:-1][same]] = True
    return np.flatnonzero(flag).tolist()


def gnp_indices(n: int, p: float, seed: int) -> list:
    """Ascending pair indices of G(n,p), one geometric skip at a time.

    The i-th double u of ``generator(seed)`` (drawn in blocks of 8192)
    moves the index on by 1 + int(log(u) / log(1 - p)), in ``math.log``;
    the walk stops at the first u <= 0 or the first index >= N, which a
    skip of N or more (an infinite one included) always reaches.
    """
    N = pair_count(n)
    if p == 0.0 or N == 0:
        return []
    if p == 1.0:
        return list(range(N))
    log_q = math.log1p(-p)
    rng = generator(seed)
    idx, i = [], -1
    while True:
        for u in rng.random(8192).tolist():
            if u <= 0.0:
                return idx
            skip = math.log(u) / log_q
            if skip >= N:
                return idx
            i += 1 + int(skip)
            if i >= N:
                return idx
            idx.append(i)


# -- exhaustive connected-graph corpus ------------------------------------

_EXPECTED_CONNECTED_COUNTS = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def connected_graphs_up_to_iso(max_n: int):
    """All connected graphs on 2..max_n vertices, one representative per
    isomorphism class, as Graph objects. Incremental generation: extend each
    (t-1)-vertex class by a new vertex joined to every nonempty subset, then
    deduplicate by canonical form (minimum edge bitmask over all vertex
    permutations). Class counts are asserted against the known values.
    """
    assert 2 <= max_n <= 7
    by_n = {2: {1}}  # single edge on K_2's one pair slot
    for t in range(3, max_n + 1):
        np_pairs = pair_count(t)
        perm_matrix = _pair_permutation_matrix(t)
        pow2 = (1 << np.arange(np_pairs, dtype=np.int64))
        new_set = set()
        prev_pairs = pair_count(t - 1)
        for bits in by_n[t - 1]:
            base = [bool(bits >> j & 1) for j in range(prev_pairs)]
            base_edges = [idx for idx in range(prev_pairs) if base[idx]]
            for sub in range(1, 1 << (t - 1)):
                vec = np.zeros(np_pairs, dtype=np.int64)
                for j in base_edges:
                    u, v = _pair_from_rank(t - 1, j)
                    vec[index_from_pair(t, u, v)] = 1
                for w in range(t - 1):
                    if sub >> w & 1:
                        vec[index_from_pair(t, w, t - 1)] = 1
                canon = int((vec[perm_matrix] @ pow2).min())
                new_set.add(canon)
        by_n[t] = new_set
    out = []
    for t in range(2, max_n + 1):
        assert len(by_n[t]) == _EXPECTED_CONNECTED_COUNTS[t], \
            (t, len(by_n[t]))
        for bits in sorted(by_n[t]):
            edges = [_pair_from_rank(t, j) for j in range(pair_count(t))
                     if bits >> j & 1]
            out.append(build_graph(t, edges))
    return out


def _pair_from_rank(n: int, rank: int):
    for u in range(n):
        row = n - u - 1
        if rank < row:
            return (u, u + 1 + rank)
        rank -= row
    raise ValueError(rank)


def _pair_permutation_matrix(n: int) -> np.ndarray:
    np_pairs = pair_count(n)
    perms = list(permutations(range(n)))
    mat = np.empty((len(perms), np_pairs), dtype=np.int64)
    for r, sigma in enumerate(perms):
        for j in range(np_pairs):
            u, v = _pair_from_rank(n, j)
            mat[r, j] = index_from_pair(n, sigma[u], sigma[v])
    return mat


# -- study output ----------------------------------------------------------

def parse_records_csv(text: str) -> list:
    """The TrialRecords of a records CSV, for round-trip checks of its
    writer: "#" lines are skipped, and each "metric:" cell is JSON."""
    reader = csv.reader(ln for ln in text.splitlines() if not ln.startswith("#"))
    header = next(reader)
    out = []
    for row in reader:
        base = dict(zip(header, row))
        metrics = {col[len("metric:"):]: json.loads(val) for col, val in base.items()
                   if col.startswith("metric:") and val != ""}
        out.append(TrialRecord(
            study=base["study"], n=int(base["n"]),
            m=None if base["m"] == "" else int(base["m"]),
            k=None if base["k"] == "" else int(base["k"]),
            trial=int(base["trial"]), seed=int(base["seed"]),
            metrics=metrics))
    return out
