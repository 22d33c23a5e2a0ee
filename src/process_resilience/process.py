"""The random graph process and its relatives: seeded samplers for the
nested process {G_i}, G(n,m), G(n,p), and coupled pairs G- <= G+, plus
hitting times along a trace.

A ProcessTrace never materializes the full permutation of the N = n(n-1)/2
vertex pairs: it is stored implicitly as (n, seed), drawn by a partial
Fisher-Yates shuffle only as far as it is read, and keeps the one prefix it
has drawn for every later reader. Each draw replays the shuffle from the
identity and walks in Python only the steps whose swaps collide. Every
hitting time is one monotone prefix search, ``_first_hit``, which draws
fewer than 1.25 m + n pairs for an answer m.
Replaying the same trace always yields the identical permutation.
``sample_gnm(n, m, seed)`` takes the first m pairs of that same
permutation, so it coincides with ``graph_at(sample_process(n, seed), m)``
by construction.

G(n,p) is sampled by geometric skipping (Batagelj and Brandes 2005), one
block of doubles at a time in numpy, with the skips of the scalar loop bit
for bit; a coupled pair merges two such index streams.

Every sampler holds the lexicographic ranks of its pairs, and every graph
is built from them by ``graphs._graph_from_ranks``; only a reader of
endpoints (the hitting times, ``pairs``, ``iter_pairs``) decodes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .graphs import (Graph, _graph_from_ranks, _integer, _key_dtype, _real,
                     incidence, is_k_connected)
from .rng import GENERATOR_ID, derive_seed, generator


def pair_count(n: int) -> int:
    n = _integer("n", n, 0)
    return n * (n - 1) // 2


def _pairs_from_indices(n: int, idx) -> tuple:
    """(us, vs): the pairs u < v at the ranks ``idx``, an int64 array, in
    the lexicographic order of the upper triangle, where row u starts at
    rank row_start(u) = u (2n - u - 1) / 2.

    A float square root guesses each row u; integer passes then step u
    until row_start(u) <= idx < row_start(u + 1), so the result is exact
    wherever (2n - 1)**2 fits in int64, n <= 2**27 included. The guess
    halves b - sqrt(b*b - 8 idx) >= 0 and truncates: halving is exact and
    truncation floors a positive value, so it equals a float floor-divide
    by 2, which costs about as much as the rest of the decode. The integer
    passes halve products >= 0, so ``>> 1`` is their exact floor-divide by
    2, and cheaper; they keep row_start(u), from which row u + 1 starts
    n - 1 - u ranks on and v is read.
    """
    idx = np.asarray(idx, dtype=np.int64)
    b = 2 * n - 1
    u = ((b - np.sqrt((b * b - 8 * idx).astype(np.float64))) * 0.5).astype(np.int64)
    start = u * (b - u) >> 1
    while (high := start > idx).any():
        u -= high
        start = u * (b - u) >> 1
    while (low := start + (n - 1 - u) <= idx).any():
        u += low
        start = u * (b - u) >> 1
    return u, idx - start + u + 1


def _repeated(values: np.ndarray) -> np.ndarray:
    """The positions i whose values[i] occurs more than once in the integer
    array ``values``, ascending.

    A sort gives ``twice``, the values seen again, in order; a 2**16-entry
    table of their low 16 bits picks out the few candidate positions in one
    gather, and a binary search in ``twice`` confirms those. This spares an
    argsort of all the values, which costs about twice as much. (np.isin
    would confirm them too, but pulls in about 1 MB more resident memory.)
    """
    ordered = np.sort(values)
    twice = ordered[1:][ordered[1:] == ordered[:-1]]
    table = np.zeros(1 << 16, dtype=bool)
    table[twice & 0xFFFF] = True
    # take, not [], which first copies int32 indices to int64
    candidates = np.flatnonzero(table.take(values & 0xFFFF))
    found = values[candidates]
    at = np.minimum(np.searchsorted(twice, found), len(twice) - 1)
    return candidates[twice[at] == found]


_BATCH = 8192
_NO_PAIRS = np.empty(0, dtype=np.int64)
_NO_PAIRS.setflags(write=False)
# a draw to fewer pairs walks all its steps: finding the colliding steps
# costs about 30 us, which the walk of 64 steps costs too (n = 64-4096)
_FLAG_MIN_STEPS = 128


@dataclass(frozen=True)
class ProcessTrace:
    """A seeded permutation of all vertex pairs, stored implicitly.

    Every reader shares the one prefix the trace has drawn, so each pair is
    drawn once. The prefix is kept as the lexicographic rank of each pair
    and its step's j, as 32-bit integers while N <= 2**31 (n <= 65536):
    8 bytes per drawn pair (16 above that) for a trace read only as
    graphs, which build straight from the ranks. A reader of endpoints
    decodes them once, into int64 arrays that add 16 bytes per pair. No
    swap map is kept. Equality and hashing see only (n, seed); a trace is
    not safe to draw from in two threads at once.
    """

    n: int
    seed: int
    # [Philox generator, j of every drawn step, ranks, us, vs]: the ranks
    # of the drawn prefix (see _ranks) and the endpoints of as many of them
    # as a reader has decoded (see _endpoints)
    _prefix: list = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _integer("n", self.n, 0))
        # a draw i + int(u * (N - i)) is exact only while N < 2**53
        if pair_count(self.n) >= 2 ** 53:
            raise ValueError(f"n={self.n} has {pair_count(self.n)} vertex "
                             f"pairs; the stream needs fewer than 2**53")
        object.__setattr__(self, "_prefix", [generator(self.seed), _NO_PAIRS,
                                             _NO_PAIRS, _NO_PAIRS, _NO_PAIRS])

    @property
    def num_pairs(self) -> int:
        return pair_count(self.n)

    def _ranks(self, m: int) -> np.ndarray:
        """A read-only array, int32 while N <= 2**31 and int64 above: the
        lexicographic ranks (see ``_pairs_from_indices``) of the first m
        pairs, a slice of the drawn prefix; only the steps past that prefix
        are drawn.

        Partial Fisher-Yates: step i draws one double u and swaps position
        i with j = i + floor(u (N - i)), the same IEEE product and
        truncation as ``int(u * (N - i))``. The draws are vectorized.
        Philox doubles do not depend on how the draws are chunked.

        The trace keeps the j of every step it has drawn, not the shuffled
        positions: a draw to m replays steps [0, m) from the identity
        through one fresh swap map, walked in Python only at step i where
        (a) another of the m steps draws its j too (``_repeated``), or
        (b) j < m, so j is a step, j == i included. Every other step picks
        its own j: no earlier step wrote there, and its own write, to a
        position j >= m no other step draws, is read by no step of [0, m).
        A draw to fewer than ``_FLAG_MIN_STEPS`` pairs walks every step. A
        draw costs O(m log m) whatever was drawn before it, so readers grow
        their prefixes geometrically: ``_first_hit`` by a quarter,
        ``iter_pairs`` by doubling.
        """
        N = self.num_pairs
        m = _integer("m", m, 0, N)
        prefix = self._prefix
        rng, draws, ranks = prefix[:3]
        start = len(ranks)
        if m > start:
            steps = np.arange(start, m, dtype=np.int64)
            new = steps + (rng.random(m - start)
                           * (N - steps).astype(np.float64)).astype(np.int64)
            draws = prefix[1] = np.concatenate((draws, new), dtype=_key_dtype(N))
            if m < _FLAG_MIN_STEPS:
                walk = np.arange(m)
            else:
                flag = draws < m                  # (b)
                flag[_repeated(draws)] = True     # (a)
                walk = np.flatnonzero(flag)
            picked, swap = [], {}
            append, get, pop = picked.append, swap.get, swap.pop
            for i, j in zip(walk.tolist(), draws[walk].tolist()):
                append(get(j, j))
                swap[j] = pop(i, i)
            # a step not walked picks its own j; a walked step before start
            # picks the rank the prefix holds already
            ranks = np.concatenate((ranks, new), dtype=draws.dtype)
            ranks[walk] = picked
            ranks.setflags(write=False)
            prefix[2] = ranks
        return ranks[:m]

    def _endpoints(self, m: int) -> tuple:
        """(us, vs): read-only int64 arrays of the first m pairs, slices of
        the decoded prefix. The first read past it decodes every rank drawn
        but not yet decoded, in one ``_pairs_from_indices`` call."""
        m = len(self._ranks(m))
        prefix = self._prefix
        us, vs = prefix[3:]
        if m > len(us):
            cu, cv = _pairs_from_indices(self.n, prefix[2][len(us):])
            us, vs = np.concatenate((us, cu)), np.concatenate((vs, cv))
            us.setflags(write=False)
            vs.setflags(write=False)
            prefix[3:] = us, vs
        return us[:m], vs[:m]

    def iter_pairs(self) -> Iterator[tuple]:
        """Stream the permutation: pair arriving at step i+1 is the i-th yield.

        The prefix grows to 64, 128, 256, ... pairs as the stream is read,
        so a consumer that stops after j pairs has drawn at most
        max(64, 2j), and a full walk copies O(N) pairs.
        """
        N = self.num_pairs
        done, size = 0, 64
        while done < N:
            us, vs = self._endpoints(min(size, N))
            yield from zip(us[done:].tolist(), vs[done:].tolist())
            done, size = len(us), 2 * size

    def pairs(self, m: int) -> list:
        """First m pairs of the permutation."""
        us, vs = self._endpoints(m)
        return list(zip(us.tolist(), vs.tolist()))

    def descriptor(self) -> dict:
        return {"n": self.n, "seed": self.seed, "generator": GENERATOR_ID}


def sample_process(n: int, seed: int) -> ProcessTrace:
    return ProcessTrace(_integer("n", n, 2), seed)


def graph_at(trace: ProcessTrace, m: int) -> Graph:
    """The process graph after m edge arrivals (distributed as G(n,m))."""
    return _graph_from_ranks(trace.n, trace._ranks(m))


def _first_hit(trace: ProcessTrace, lo: int, *tests: Callable) -> int:
    """Smallest m >= lo at which every test ``holds(us, vs)`` is true of the
    first m arrivals.

    Each test must be monotone in m and true at m = N; one still false at
    N raises RuntimeError. Each test is searched from the hit of the test
    before it: probed there first, then on a prefix grown by a quarter of
    its length, at least n pairs, capped at N, while the test is false of
    all of it, then bisected on slices of that prefix. A search that stops
    at m draws fewer than 1.25 m + n pairs and probes O(log m) prefixes,
    and a cheap test placed first spares a costly one most of its probes.
    """
    N = trace.num_pairs
    for holds in tests:
        hi = lo
        us, vs = trace._endpoints(hi)
        while not holds(us, vs):
            if hi == N:
                raise RuntimeError(f"a test is still false at m = N = {N}; "
                                   f"every test must hold at N")
            lo = hi + 1
            hi = min(hi + max(hi // 4, trace.n), N)
            us, vs = trace._endpoints(hi)
        while lo < hi:
            mid = (lo + hi) // 2
            if holds(us[:mid], vs[:mid]):
                hi = mid
            else:
                lo = mid + 1
    return lo


def _min_degree_test(trace: ProcessTrace, k: int) -> Callable:
    """The test "min degree >= k" of a prefix of the trace; 1 <= k < n."""
    n = trace.n
    if n < 2:
        raise ValueError(f"a hitting time needs a trace of n >= 2 vertices, "
                         f"got n = {n}")
    k = _integer("k", k, 1, n - 1)
    return lambda us, vs: incidence(n, us, vs).min() >= k


def hitting_time_min_degree(trace: ProcessTrace, k: int) -> int:
    """Smallest m with min degree >= k. The search starts at ceil(k n / 2),
    since min degree k needs 2m >= k n."""
    min_degree = _min_degree_test(trace, k)
    return _first_hit(trace, -(-k * trace.n // 2), min_degree)


def hitting_time_k_connectivity(trace: ProcessTrace, k: int) -> int:
    """Smallest m with G_m k-connected.

    k-connectivity is monotone under edge addition and needs min degree
    >= k, so the search first finds the min-degree hitting time and checks
    k-connectivity only from there on, on the same prefix.
    """
    min_degree = _min_degree_test(trace, k)

    def k_connected(us, vs):
        return is_k_connected(graph_at(trace, len(us)), k)

    return _first_hit(trace, -(-k * trace.n // 2), min_degree, k_connected)


def sample_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform graph with n vertices and m edges; ValueError unless m is in
    [0, N]."""
    return graph_at(ProcessTrace(n, seed), m)


def _gnp_indices(n: int, p: float, seed: int) -> np.ndarray:
    """Ascending pair indices of G(n,p) by geometric skipping.

    Each double u of ``generator(seed)`` skips floor(log(u) / log(1 - p))
    pairs past the last index, and the stream stops at the first index
    >= N. The doubles are drawn and turned into skips in ``_BATCH``
    blocks. ``np.log`` may miss ``math.log`` by an ulp, so wherever the
    quotient lies within a relative 1e-9 of an integer it is recomputed
    with ``math.log``: the indices are those of the scalar loop in
    tests/oracles.py, bit for bit. A skip is capped at N, so u = 0, or a p
    too small for the quotient to be finite, ends the stream. The
    generator is made first, so every seed is checked, drawn from or not.
    """
    N = pair_count(n)
    rng = generator(seed)
    if p == 0.0 or N == 0:
        return np.empty(0, dtype=np.int64)
    if p == 1.0:
        return np.arange(N, dtype=np.int64)
    log_q = math.log1p(-p)
    blocks, last = [], -1
    while True:
        u = rng.random(_BATCH)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            q = np.log(u) / log_q
            near = np.abs(q - np.rint(q)) <= 1e-9 * q  # never at q = inf
        if near.any():
            q[near] = [math.log(x) / log_q for x in u[near].tolist()]
        # every index up to the first >= N stays below 2N + 1: no overflow
        idx = last + np.cumsum(np.minimum(np.floor(q), N).astype(np.int64) + 1)
        stop = np.flatnonzero(idx >= N)
        if stop.size:
            blocks.append(idx[:stop[0]])
            return np.concatenate(blocks)
        blocks.append(idx)
        last = int(idx[-1])


def sample_gnp(n: int, p: float, seed: int) -> Graph:
    """Binomial random graph; geometric skipping, runtime ~ output edges."""
    _real("p", p, 0, 1)
    return _graph_from_ranks(n, _gnp_indices(n, p, seed))


@dataclass(frozen=True)
class CoupledSample:
    """G- ~ G(n,p0) together with G+ = G- union G(n,p'), marginally G(n,p1)."""

    g_minus: Graph
    g_plus: Graph
    p0: float
    p_prime: float
    p1: float


def sample_coupled(n: int, p0: float, p_prime: float, seed: int) -> CoupledSample:
    """Sample the coupled pair from two independent derived streams."""
    _real("p0", p0, 0, 1)
    _real("p_prime", p_prime, 0, 1)
    below = _gnp_indices(n, p0, derive_seed(seed, 0))
    # union of the two index sets; np.union1d would pull in about 1 MB more
    # resident memory on first use
    both = np.sort(np.concatenate((below, _gnp_indices(n, p_prime, derive_seed(seed, 1)))))
    union = both[np.diff(both, prepend=-1) != 0]
    g_minus = _graph_from_ranks(n, below)
    g_plus = _graph_from_ranks(n, union)
    if p_prime == 0.0:
        p1 = p0
    elif p0 == 0.0:
        p1 = p_prime
    else:
        p1 = 1.0 - (1.0 - p0) * (1.0 - p_prime)
    return CoupledSample(g_minus, g_plus, p0, p_prime, p1)
