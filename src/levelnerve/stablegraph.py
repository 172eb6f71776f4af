"""Stable graphs: dual graphs of surfaces cut along multicurves.

A vertex carries a genus and a tuple of labeled marked points; an edge is an
unordered vertex pair (loops allowed) and corresponds to one curve of the
multicurve.  Stability is the usual hyperbolicity condition on every piece,
2*g_v - 2 + deg(v) + #marks(v) > 0, with deg counting loops twice.

Canonical forms are computed by minimizing the encoding over the vertex
relabelings that respect an invariant class (see relabelings), which is
plenty at desk scale; equality of canonical keys is graph isomorphism (mark
labels are preserved, not permuted).  All stable graphs of a signature are
generated from the smooth graph by single degenerations.

components(n, edges) is the package's one connectivity routine: stable
graphs, decomposition graphs, bonds and connected subgraphs, edge orbits,
sheet orbits of deck translations and the components of a complex all read
their connected pieces from it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, permutations, product

from .errors import InvalidInputError


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
    every permutation within the classes follows."""
    classes = {}
    for v, key in enumerate(inv):
        classes.setdefault(key, []).append(v)
    for perms in product(*(permutations(classes[k]) for k in sorted(classes))):
        order = [0] * len(inv)
        for label, v in enumerate(chain.from_iterable(perms)):
            order[v] = label
        yield order


class StableGraph:
    def __init__(self, vertices, edges):
        """vertices: list of (genus, marks) with marks an iterable of labels;
        edges: list of (u, v) vertex indices, u == v for a loop."""
        self.vertices = [(int(g), tuple(sorted(mk))) for (g, mk) in vertices]
        self.edges = [tuple(sorted((int(u), int(v)))) for (u, v) in edges]
        V = len(self.vertices)
        for (g, mk) in self.vertices:
            if g < 0:
                raise InvalidInputError("vertex genus must be nonnegative")
        for (u, v) in self.edges:
            if not (0 <= u < V and 0 <= v < V):
                raise InvalidInputError("edge endpoint out of range")

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

    def degree(self, v):
        d = 0
        for (a, b) in self.edges:
            if a == v:
                d += 1
            if b == v:
                d += 1
        return d

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
        for v, (g, mk) in enumerate(self.vertices):
            if 2 * g - 2 + self.degree(v) + len(mk) <= 0:
                return False
        return True

    # -- canonical form

    def _encode(self, perm):
        """Encoding after renaming vertex i to perm[i]."""
        V = len(self.vertices)
        verts = [None] * V
        for i, (g, mk) in enumerate(self.vertices):
            verts[perm[i]] = (g, mk)
        edges = sorted(tuple(sorted((perm[u], perm[v])))
                       for (u, v) in self.edges)
        return (tuple(verts), tuple(edges))

    def canonical_key(self):
        inv = [(vert, self.degree(v)) for v, vert in enumerate(self.vertices)]
        return min(map(self._encode, relabelings(inv)))

    def canonical(self):
        verts, edges = self.canonical_key()
        return StableGraph(list(verts), list(edges))

    def is_isomorphic(self, other):
        return self.canonical_key() == other.canonical_key()

    def automorphisms(self):
        """All vertex permutations preserving decorations and the edge
        multiset, as tuples perm with perm[i] = image of i."""
        V = len(self.vertices)
        key = self._encode(tuple(range(V)))
        out = []
        for perm in permutations(range(V)):
            ok = all(self.vertices[i] == self.vertices[perm[i]]
                     for i in range(V))
            if ok and self._encode(perm) == key:
                out.append(perm)
        return out

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


def _degenerations(t):
    """Every graph that contracts back onto t along one new edge: a loop at
    a vertex of positive genus, or a vertex v split into v and a new last
    vertex joined by the new edge, sharing out the genus, the marks and the
    half-edges of v (a loop at v counts as two half-edges)."""
    V = len(t.vertices)
    for v, (g, mk) in enumerate(t.vertices):
        if g > 0:
            verts = list(t.vertices)
            verts[v] = (g - 1, mk)
            yield StableGraph(verts, t.edges + [(v, v)])
        ends = [(i, j) for i, e in enumerate(t.edges) for j in (0, 1)
                if e[j] == v]
        for gw in range(g + 1):
            for mw in _subsets(mk):
                rest = tuple(x for x in mk if x not in mw)
                for moved in _subsets(ends):
                    edges = [list(e) for e in t.edges]
                    for (i, j) in moved:
                        edges[i][j] = V
                    verts = list(t.vertices) + [(gw, mw)]
                    verts[v] = (g - gw, rest)
                    yield StableGraph(verts, edges + [(v, V)])


@lru_cache(maxsize=None)
def _all_stable_graphs(g, n):
    """Breadth-first search by single degenerations from the smooth graph.
    It is complete: contracting an edge keeps 2g-2+deg+#marks positive at
    every vertex, so each stable graph with an edge degenerates from a
    stable graph with one edge fewer."""
    if g < 0 or n < 0:
        raise InvalidInputError("bad signature")
    found = {}
    layer = [StableGraph([(g, range(1, n + 1))], [])]
    while layer:
        nxt = []
        for t in layer:
            for sg in _degenerations(t):
                if not sg.is_stable():
                    continue
                key = sg.canonical_key()
                if key not in found:
                    found[key] = sg.canonical()
                    nxt.append(sg)
        layer = nxt
    return tuple(found[k] for k in sorted(found))


def max_rank(g, n):
    """Largest k for which graphs with k+1 edges exist (nerve dimension)."""
    return 3 * g - 4 + n if g >= 1 else n - 4


def enumerate_stable_graphs(g, n, k=None, include_empty=False):
    """Isomorphism classes of stable graphs of signature (g, n), one
    canonical representative each, in deterministic order.

    With k given, only the types with exactly k+1 edges (empty above the
    dimension bound 3g-4+n, resp. n-4 for g = 0).  With k = None, all types
    with at least one edge; include_empty prepends the edgeless smooth type
    when it is stable."""
    if k is not None:
        if k < 0:
            raise InvalidInputError("negative rank")
        if k > max_rank(g, n):
            return ()
        return tuple(t for t in _all_stable_graphs(g, n)
                     if len(t.edges) == k + 1)
    out = _all_stable_graphs(g, n)
    if include_empty:
        sg = StableGraph([(g, tuple(range(1, n + 1)))], [])
        if sg.is_stable():
            out = (sg,) + out
    return out
