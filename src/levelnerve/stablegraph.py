"""Stable graphs: dual graphs of surfaces cut along multicurves.

A vertex carries a genus and a tuple of labeled marked points; an edge is an
unordered vertex pair (loops allowed) and corresponds to one curve of the
multicurve.  Stability is the usual hyperbolicity condition on every piece,
2*g_v - 2 + deg(v) + #marks(v) > 0, with deg counting loops twice.

Canonical keys minimize the edge encoding over the vertex relabelings that
respect an invariant class (see relabelings), all of which order the
vertices alike; equality of keys is graph isomorphism (mark labels are
preserved, not permuted).  All stable graphs of a signature are generated
from the smooth graph by single degenerations.  A degeneration changes
only the vertex it acts on and the vertex it adds, so a candidate is stable
exactly when those two are; only stable raw (vertices, sorted edges)
candidates are made, each distinct one is keyed once per parent, and only
a new type's representative is built.

components(n, edges) is the package's one connectivity routine: stable
graphs, decomposition graphs, bonds and connected subgraphs, edge orbits,
sheet orbits of deck translations and the components of a complex all read
their connected pieces from it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, combinations, permutations, product

from .errors import InvalidInputError, ResourceLimitError, self_check
from .symplectic import check_int, check_ints, check_shape

# cap for the exhaustive search of relabelings
MAX_CANONICAL_PERMS = 362880


def components(n, edges):
    """Connected components of the graph on vertices 0..n-1 with the given
    edges (vertex pairs; loops and repeats allowed), as sorted vertex
    tuples ordered by least vertex.  A union-find whose root is always the
    least vertex of its component."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for (u, v) in edges:
        a, b = find(u), find(v)
        if a != b:
            root[max(a, b)] = min(a, b)
    comps = {}
    for x in range(n):
        comps.setdefault(find(x), []).append(x)
    return tuple(map(tuple, comps.values()))


def relabelings(inv):
    """Every vertex relabeling order[v] = new label that numbers the
    vertices class by class, the classes of equal inv[v] in ascending inv.
    The first relabeling takes each class in ascending vertex order; then
    every permutation within the classes follows.  Raises
    ResourceLimitError when there would be more than MAX_CANONICAL_PERMS."""
    classes = {}
    for v, key in enumerate(inv):
        classes.setdefault(key, []).append(v)
    count = math.prod(math.factorial(len(c)) for c in classes.values())
    if count > MAX_CANONICAL_PERMS:
        raise ResourceLimitError("canonical form permutation cap")
    for perms in product(*(permutations(classes[k]) for k in sorted(classes))):
        order = [0] * len(inv)
        for label, v in enumerate(chain.from_iterable(perms)):
            order[v] = label
        yield order


def _canonical_key(vertices, edges):
    """Canonical key (vertices, edges): every relabeling orders vertices by
    (genus, marks, degree), so only the sorted edge list is minimized."""
    deg = [0] * len(vertices)
    for (u, v) in edges:
        deg[u] += 1
        deg[v] += 1
    inv = list(zip(vertices, deg))
    return (tuple(vert for vert, _ in sorted(inv)),
            min(tuple(sorted([(o[u], o[v]) if o[u] <= o[v] else (o[v], o[u])
                              for (u, v) in edges]))
                for o in relabelings(inv)))


class StableGraph:
    def __init__(self, vertices, edges):
        """vertices: list of (genus, marks) with marks an iterable of
        labels; edges: list of (u, v) vertex indices, u == v for a loop.
        Genera, labels and indices must be ints."""
        self.vertices = [(g, tuple(sorted(check_ints(mk, "mark label"))))
                         for g, mk in (check_shape(x, "vertex", 2)
                                       for x in vertices)]
        self.edges = [tuple(sorted(check_ints(e, "edge endpoint", 2)))
                      for e in edges]
        V = len(self.vertices)
        for (g, mk) in self.vertices:
            check_int(g, "vertex genus")
            if g < 0:
                raise InvalidInputError("vertex genus must be nonnegative")
        for (u, v) in self.edges:
            if not (0 <= u < V and 0 <= v < V):
                raise InvalidInputError("edge endpoint out of range")

    @classmethod
    def from_key(cls, key):
        """The canonical representative of a type, built from its
        canonical key (vertices, edges); it carries that key as `key`, so
        readers of the representative need not compute it again."""
        verts, edges = key
        rep = cls(list(verts), list(edges))
        rep.key = key
        return rep

    # -- basic invariants

    def n_vertices(self):
        return len(self.vertices)

    def n_edges(self):
        return len(self.edges)

    def marks(self):
        out = []
        for (_, mk) in self.vertices:
            out.extend(mk)
        return tuple(sorted(out))

    def degrees(self):
        """Degree of every vertex, a loop counted twice."""
        deg = [0] * len(self.vertices)
        for (u, v) in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def is_connected(self):
        V = len(self.vertices)
        return V > 0 and len(components(V, self.edges)) == 1

    def b1(self):
        return len(self.edges) - len(self.vertices) + 1

    def genus(self):
        return sum(g for (g, _) in self.vertices) + self.b1()

    def is_stable(self):
        if not self.is_connected():
            return False
        return all(2 * g - 2 + d + len(mk) > 0
                   for (g, mk), d in zip(self.vertices, self.degrees()))

    # -- canonical form

    def canonical_key(self):
        return _canonical_key(self.vertices, self.edges)

    def is_isomorphic(self, other):
        return self.canonical_key() == other.canonical_key()

    # -- cuts

    def _connected_without(self, removed):
        kept = [e for i, e in enumerate(self.edges) if i not in removed]
        return len(components(len(self.vertices), kept)) == 1

    def is_bridge(self, idx):
        u, v = self.edges[idx]
        if u == v:
            return False
        return not self._connected_without({idx})

    def bridges(self):
        return [i for i in range(len(self.edges)) if self.is_bridge(i)]

    def minimal_two_cuts(self):
        """Unordered pairs of edges that jointly disconnect the graph while
        neither does alone."""
        E = len(self.edges)
        bridges = set(self.bridges())
        out = []
        for i in range(E):
            if i in bridges or self.edges[i][0] == self.edges[i][1]:
                continue
            for j in range(i + 1, E):
                if j in bridges or self.edges[j][0] == self.edges[j][1]:
                    continue
                if not self._connected_without({i, j}):
                    out.append((i, j))
        return out


def _subsets(items):
    return chain.from_iterable(combinations(items, r)
                               for r in range(len(items) + 1))


def _degenerations(vertices, edges):
    """Every stable graph, as raw (vertices, sorted edges) tuples, that
    contracts back onto (vertices, edges) along one new edge: a loop at a
    vertex v of positive genus, or v split into v and a new last vertex w
    joined by the new edge, sharing out the genus, the marks and the
    half-edges of v (a loop at v counts as two half-edges).

    Every other vertex keeps its genus, marks and degree, so a candidate of
    a stable graph is stable exactly when v and w are, and only those are
    yielded.  With k half-edges moved to w and d = deg(v), w needs
    2*gw - 1 + k + #mw > 0 and v needs 2*(g - gw) - 1 + d - k + #rest > 0;
    the loop needs 2*g - 2 + d + #marks > 0, which fails only for an
    unstable smooth graph.  Both branches add an edge at v and keep every
    old edge, so connectivity needs no check."""
    V = len(vertices)
    for v, (g, mk) in enumerate(vertices):
        ends = [(i, j) for i, e in enumerate(edges) for j in (0, 1)
                if e[j] == v]
        d = len(ends)
        if g > 0 and 2 * g - 2 + d + len(mk) > 0:
            yield (vertices[:v] + ((g - 1, mk),) + vertices[v + 1:],
                   tuple(sorted(edges + ((v, v),))))
        for gw in range(g + 1):
            for mw in _subsets(mk):
                rest = tuple(x for x in mk if x not in mw)
                for moved in _subsets(ends):
                    k = len(moved)
                    if (2 * gw - 1 + k + len(mw) <= 0
                            or 2 * (g - gw) - 1 + d - k + len(rest) <= 0):
                        continue
                    new = [list(e) for e in edges]
                    for (i, j) in moved:
                        new[i][j] = V
                    new = [(min(e), max(e)) for e in new] + [(v, V)]
                    yield (vertices[:v] + ((g - gw, rest),) + vertices[v + 1:]
                           + ((gw, mw),), tuple(sorted(new)))


@lru_cache(maxsize=None)
def _all_stable_graphs(g, n):
    """Breadth-first search by single degenerations from the smooth graph.
    It is complete: contracting an edge keeps 2g-2+deg+#marks positive at
    every vertex, so each stable graph with an edge degenerates from a
    stable graph with one edge fewer.  Each distinct raw candidate of a
    parent is keyed once; a new type's representative is built and checked
    for stability."""
    if g < 0 or n < 0:
        raise InvalidInputError("bad signature")
    found = {}
    layer = [(((g, tuple(range(1, n + 1))),), ())]
    while layer:
        nxt = []
        for t in layer:
            for raw in dict.fromkeys(_degenerations(*t)):
                key = _canonical_key(*raw)
                if key not in found:
                    rep = found[key] = StableGraph.from_key(key)
                    self_check(rep.is_stable(), "degeneration is stable")
                    nxt.append(raw)
        layer = nxt
    return tuple(found[k] for k in sorted(found))


def max_rank(g, n):
    """Top rank of the nerve, 3g-4+n: a stable graph has at most 3g-3+n
    edges."""
    check_ints((g, n), "signature entry")
    return 3 * g - 4 + n


def enumerate_stable_graphs(g, n, include_empty=False):
    """Isomorphism classes of stable graphs of signature (g, n), one
    canonical representative each, in deterministic order; each carries
    its canonical key as `key` (StableGraph.from_key).

    All types with at least one edge; include_empty prepends the edgeless
    smooth type when it is stable."""
    check_ints((g, n), "signature entry")
    out = _all_stable_graphs(g, n)
    if include_empty:
        sg = StableGraph.from_key((((g, tuple(range(1, n + 1))),), ()))
        if sg.is_stable():
            out = (sg,) + out
    return out
