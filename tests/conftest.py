import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from process_resilience.classify import VertexClassification
from process_resilience.graphs import build_graph


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def star(n):
    return build_graph(n, [(0, i) for i in range(1, n)])


def cherry_gadget():
    """Two leaves on a degree-3 vertex c=2 whose anchor d=3 sits on a triangle."""
    return build_graph(6, [(0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])


def hypercube(d):
    n = 1 << d
    return build_graph(n, [(v, v ^ (1 << i)) for v in range(n) for i in range(d)
                           if v < v ^ (1 << i)])


def circulant(n, offsets):
    return build_graph(n, {tuple(sorted((v, (v + o) % n)))
                           for v in range(n) for o in offsets})


def manual_cls(g, tiny=(), atyp=()):
    """A classification of g with the given classes, at p = 0, delta = 1/2."""
    return VertexClassification(g, 0.0, 0.5, frozenset(tiny), frozenset(atyp))
