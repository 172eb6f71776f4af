"""Reference routines that only the tests use.

Each checks a package result by a separate route: contracting an edge
undoes a degeneration, automorphisms tries every vertex permutation of a
stable graph, encoded_key encodes the vertices and edges of a stable graph
under every class-respecting relabeling and keeps the least,
stable_graphs_by_filter enumerates stable graphs by building every single
degeneration, keeping the stable ones and keying them by encoded_key, the
module-map report reads the gluing condition off a plain Smith form,
pushout_report_by_kernel decides that the glued vertex groups embed by
solving every generator of the kernel of the map to H over the gluing
relations, the
catalog lookup finds a representative by its dual graph, laminar_families
is the catalog's diagram search without pruning at rejected families, snf
computes the Smith form with both transforms,
lattice_reduce tests lattice membership against Hermite rows,
RestartFoldedGraph folds a Stallings graph by rescanning every edge after
each single merge, quotient_profile reads a quotient of subgroups off the
integer coordinates of one Hermite lattice in another at every modulus,
maps_onto compares a subgroup's image with another subgroup through
dense images and Hermite-row membership, equivalent decides the
equivalence of decompositions that canonical_form encodes by searching
vertex bijections,
transported_faces rebuilds a complex's face tables by transporting every
vertex and face shadow with the simplex's stored matrix,
checked_transport builds sp_action's value through the checking
constructors and transport_mismatches compares the two,
action_natural_every_element checks the deck action of an equivariant
decomposition element by element, with the perms composed over every
pair of elements, and
weierstrass_pairs, delta_0_6 and nerve_split_systems model the level-2
genus-2 nerve as the boundary complex of M_{0,6} through the six
Weierstrass points, a model that shares none of the builder's data, and
transposition_mismatches checks that the chain twists act on it as the
transpositions of S_6,
signed_schreier_vertex_group spans a sheet stabilizer's image from a
transversal over the piece generators and their inverses, one Schreier
generator per sheet and generator, and RecordElimination finds the
coordinates of a subgroup word by eliminating the merged letters of its
loop vector one record at a time, then changing to the symplectic
frame, and deck_matrices_by_sheets reads the matrix of every deck element
from the cover, as the package did before it composed the generators'.
values_by_words replays each breadth-first word of an orbit from the seed
to find the value tree_walk hands its element, and schreier_edges_by_words
names the edges off the tree by comparing words, as the package did before
it walked the tree once; forest_by_queue searches any graph breadth-first
with a deque of its own and replays each vertex's tree path.
snf_diagonal_dense is the dense Smith elimination that scans every row for
its pivot, and tietze_resorting the generator elimination that re-sorts
every relation before each step, as the package ran them before they
worked on sparse rows and on an occurrence index.  rref_by_lists and
rref_transform_by_lists are the echelon over F_p on lists of entries at
every prime, as the package ran it at p = 2 before it packed the rows."""

import math
from collections import deque
from itertools import chain, combinations, permutations

from levelnerve.catalog import (_compatible, _curve_count, _objects,
                                multicurve_catalog)
from levelnerve.covers import _base_rotation, _chain, _table
from levelnerve.decomp import (EquivariantDecomposition,
                               FramedDecomposition, canonical_form,
                               sp_action, validate)
from levelnerve.errors import (InvalidInputError, LevelNerveError,
                               UnsupportedError)
from levelnerve.stablegraph import StableGraph, relabelings
from levelnerve.surface import twist_automorphisms
from levelnerve.symplectic import (_int_coords, checked_matrix, hnf,
                                   hnf_transform, mat_identity,
                                   mod_row_kernel,
                                   orbit_enumerate, snf_diagonal, vec_mat)
from levelnerve.words import (cyclic_reduce, max_letter, winv, wmul,
                              wreduce)


def contract_edge(sg, idx):
    """Undo the curve at edge idx: a loop adds genus to its vertex, a
    plain edge merges its endpoints."""
    if not (0 <= idx < len(sg.edges)):
        raise InvalidInputError("no such edge")
    u, v = sg.edges[idx]
    rest = [e for i, e in enumerate(sg.edges) if i != idx]
    verts = list(sg.vertices)
    if u == v:
        g, mk = verts[u]
        verts[u] = (g + 1, mk)
        return StableGraph(verts, rest)
    gu, mku = verts[u]
    gv, mkv = verts[v]
    verts[u] = (gu + gv, tuple(sorted(mku + mkv)))
    del verts[v]

    def ren(x):
        return u if x == v else (x - 1 if x > v else x)

    return StableGraph(verts, [(ren(a), ren(b)) for (a, b) in rest])


def automorphisms(sg):
    """All vertex permutations of sg preserving decorations and the edge
    multiset, as tuples perm with perm[i] = image of i."""
    V = sg.n_vertices()
    edges = sorted(sg.edges)
    return [perm for perm in permutations(range(V))
            if all(sg.vertices[i] == sg.vertices[perm[i]] for i in range(V))
            and sorted(tuple(sorted((perm[u], perm[v])))
                       for (u, v) in sg.edges) == edges]


def encoded_key(sg):
    """The least encoding (vertices, edges) of sg over the relabelings of
    its (vertex, degree) classes, vertices and edges both renamed."""
    def encode(perm):
        verts = [None] * sg.n_vertices()
        for i, vert in enumerate(sg.vertices):
            verts[perm[i]] = vert
        edges = sorted(tuple(sorted((perm[u], perm[v])))
                       for (u, v) in sg.edges)
        return (tuple(verts), tuple(edges))

    return min(map(encode, relabelings(list(zip(sg.vertices,
                                                sg.degrees())))))


def _every_degeneration(t):
    """Every graph that contracts back onto t along one new edge, stable
    or not: a loop at a vertex of positive genus, or a vertex split in two
    in every way."""
    V = t.n_vertices()
    for v, (g, mk) in enumerate(t.vertices):
        if g > 0:
            verts = list(t.vertices)
            verts[v] = (g - 1, mk)
            yield StableGraph(verts, t.edges + [(v, v)])
        ends = [(i, j) for i, e in enumerate(t.edges) for j in (0, 1)
                if e[j] == v]
        for gw in range(g + 1):
            for mw in chain.from_iterable(combinations(mk, r)
                                          for r in range(len(mk) + 1)):
                rest = tuple(x for x in mk if x not in mw)
                for r in range(len(ends) + 1):
                    for moved in combinations(ends, r):
                        edges = [list(e) for e in t.edges]
                        for (i, j) in moved:
                            edges[i][j] = V
                        verts = list(t.vertices) + [(gw, mw)]
                        verts[v] = (g - gw, rest)
                        yield StableGraph(verts, edges + [(v, V)])


def stable_graphs_by_filter(g, n):
    """Canonical representatives of the stable graphs of (g, n) with at
    least one edge, sorted by key: breadth-first from the smooth graph,
    building every degeneration, keeping those that pass is_stable and
    keying them by encoded_key."""
    found = {}
    layer = [StableGraph([(g, range(1, n + 1))], [])]
    while layer:
        nxt = []
        for t in layer:
            for sg in _every_degeneration(t):
                if not sg.is_stable():
                    continue
                key = encoded_key(sg)
                if key not in found:
                    found[key] = StableGraph(*key)
                    nxt.append(sg)
        layer = nxt
    return [found[k] for k in sorted(found)]


def module_map_report(rows, n, m):
    """The Z/m-module map (Z/m)^k -> (Z/m)^n sending e_i to rows[i]:
    report injectivity and whether the cokernel is free, with its rank."""
    k = len(rows)
    mat = [list(map(int, r)) for r in rows]
    for r in mat:
        if len(r) != n:
            raise InvalidInputError("row length mismatch")
    ker = mod_row_kernel(mat, m)
    if m == 0:
        injective = not ker
    else:
        injective = hnf(ker) == [[m if j == i else 0 for j in range(k)]
                                 for i in range(k)] if ker else k == 0
    if m == 0:
        divs = [d for d in snf_diagonal(mat) if d]
        coker_free = all(d == 1 for d in divs)
        coker_rank = n - len(divs) if coker_free else None
    else:
        stacked = mat + [[m if j == i else 0 for j in range(n)]
                         for i in range(n)]
        divs = list(snf_diagonal(stacked))
        coker_free = all(d == m or d == 1 for d in divs)
        coker_rank = sum(1 for d in divs if d == m) if coker_free else None
    return {"injective": injective, "coker_free": coker_free,
            "coker_rank": coker_rank}


def pushout_report_by_kernel(space, vgroups, edges, egroups, strict=False):
    """decomp._pushout_report with injectivity read off kernels: the
    relations of the gluing lie in the kernel of the map to H, so the map
    is injective exactly when every generator of that kernel lies in their
    span.  Returns (defined, injective, image subgroup)."""
    gens = [vg.canonical_gens() for vg in vgroups]
    offs = [0]
    for gg in gens:
        offs.append(offs[-1] + len(gg))
    total = offs[-1]
    amb = [list(v) for gg in gens for v in gg]
    rel = []
    for v, vg in enumerate(vgroups):
        for t in vg.relations():
            r = [0] * total
            r[offs[v]:offs[v + 1]] = t
            rel.append(r)
    coords = [vg.solver() for vg in vgroups]
    for e, (u, v) in enumerate(edges):
        for x in egroups[e].canonical_gens():
            cu = coords[u](x)
            cv = coords[v](x)
            if cu is None or cv is None:
                if strict:
                    return (False, False, None)
                continue
            if u == v:
                continue
            r = [0] * total
            r[offs[u]:offs[u + 1]] = cu
            r[offs[v]:offs[v + 1]] = [-a for a in cv]
            rel.append(r)
    if total == 0:
        return (True, True, space.subgroup([]))
    image = space.subgroup([space.reduce(row) for row in amb])
    in_rel = space.solver(rel, total)
    injective = all(in_rel(x) is not None for x in space.row_kernel(amb))
    return (True, injective, image)


def standard_multicurve(t):
    """The catalog representative whose dual graph is isomorphic to t."""
    marks = t.marks()
    n = len(marks)
    if marks != tuple(range(1, n + 1)):
        raise InvalidInputError("marking labels must be 1..n")
    key = t.canonical_key()
    for rep in multicurve_catalog(t.genus(), n):
        if rep.key == key:
            return rep
    raise UnsupportedError("type outside catalog")


def laminar_families(B, max_curves):
    """Every laminar family of diagram objects on B branch points with at
    most max_curves lifted curves, the empty family first, then DFS order:
    the catalog's search with no family left out below a rejected one."""
    objs = _objects(B)

    def extend(start, chosen, curves):
        for idx in range(start, len(objs)):
            o = objs[idx]
            c = curves + _curve_count(o)
            if c <= max_curves and all(_compatible(o, p) for p in chosen):
                yield chosen + (o,)
                yield from extend(idx + 1, chosen + (o,), c)

    yield ()
    yield from extend(0, (), 0)


def weierstrass_pairs():
    """H_1(S_2; F_2) as pairs of Weierstrass points: the mod-2 classes
    c_1..c_5 of the chain twists twist_automorphisms(2, 0) send the pair
    (i, j), 1 <= i < j <= 6, to c_i + ... + c_{j-1}.  Returns the dict
    vector -> pair, and the classes."""
    classes = [tuple(x % 2 for x in t.curve_class)
               for t in twist_automorphisms(2, 0)]
    pairs = {}
    for i, j in combinations(range(1, 7), 2):
        v = tuple(sum(col) % 2 for col in zip(*classes[i - 1:j - 1]))
        pairs[v] = (i, j)
    return pairs, classes


SIX = frozenset(range(1, 7))


def _split(side):
    """The split side|rest of {1..6}, named by its side that holds 1."""
    side = frozenset(side)
    return side if 1 in side else SIX - side


def delta_0_6():
    """The boundary complex of M_{0,6} by rank: the k-simplices are the
    sets of k+1 pairwise compatible splits A|A^c of {1..6} with both sides
    of size at least 2; two splits are compatible when a side of one and a
    side of the other are disjoint."""
    splits = {_split(A) for r in (2, 3) for A in combinations(SIX, r)}

    def compatible(a, b):
        return any(not (x & y) for x in (a, SIX - a) for y in (b, SIX - b))

    ranks = [{frozenset([s]) for s in splits}]
    while True:
        up = {simplex | {s} for simplex in ranks[-1] for s in splits
              if s not in simplex
              and all(compatible(s, t) for t in simplex)}
        if not up:
            return ranks
        ranks.append(up)


def nerve_split_systems(X):
    """Per rank, the split system of each simplex of a (2, 0, 2) nerve: a
    vertex with one piece is a non-separating curve and maps to the pair of
    its edge group's class; a vertex with two pieces cuts H into P + P^perp,
    the three nonzero vectors of P are the pairs inside a 3-set T, and it
    maps to T|T^c.  A simplex maps to the splits of the vertices its face
    table reaches."""
    pairs, _ = weierstrass_pairs()
    splits = []
    for d in X.decomps[0]:
        group = d.edge_groups[0] if d.V == 1 else d.vertex_groups[0]
        inside = [p for v, p in pairs.items() if group.contains(v)]
        splits.append(_split(chain.from_iterable(inside)))
    verts = [[frozenset([v]) for v in range(X.size(0))]]
    for k in range(1, X.top_rank + 1):
        verts.append([frozenset().union(*(verts[k - 1][f] for f in row))
                      for row in X.faces[k]])
    return [[frozenset(splits[v] for v in vs) for vs in block]
            for block in verts]


def transposition_mismatches(X, k, systems):
    """The (simplex, twist) pairs at rank k of a (2, 0, 2) nerve, with
    systems = nerve_split_systems(X), where the transvection along c_i
    does not carry the simplex to the one whose split system is its own
    under the transposition (i i+1)."""
    _, classes = weierstrass_pairs()
    index = {enc: s for s, enc in enumerate(X.encodings[k])}
    out = []
    for i, c in enumerate(classes, start=1):
        F = X.decomps[k][0].space.transvection(c)
        swap = {i: i + 1, i + 1: i}
        for s, d in enumerate(X.decomps[k]):
            t = index.get(canonical_form(sp_action(F, d)))
            want = frozenset(_split(swap.get(x, x) for x in side)
                             for side in systems[k][s])
            if t is None or systems[k][t] != want:
                out.append((s, i))
    return out


def snf(mat):
    """Smith normal form with transforms: returns (D, U, V) where
    U * mat * V = D, U and V unimodular, D diagonal (as a full matrix) with
    each diagonal entry nonnegative and dividing the next."""
    A = [list(map(int, r)) for r in mat]
    r = len(A)
    c = len(A[0]) if A else 0
    U = mat_identity(r)
    V = mat_identity(c)

    def row_op(i, j, q):
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):
        for row_ in A:
            row_[i] -= q * row_[j]
        for row_ in V:
            row_[i] -= q * row_[j]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for row_ in A:
            row_[i], row_[j] = row_[j], row_[i]
        for row_ in V:
            row_[i], row_[j] = row_[j], row_[i]

    def clean(t):
        while True:
            piv = None
            for i in range(t, r):
                for j in range(t, c):
                    if A[i][j]:
                        if piv is None or abs(A[i][j]) < abs(A[piv[0]][piv[1]]):
                            piv = (i, j)
            if piv is None:
                return False
            if piv != (t, t):
                if piv[0] != t:
                    row_swap(t, piv[0])
                if piv[1] != t:
                    col_swap(t, piv[1])
            dirty = False
            for i in range(t + 1, r):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_op(i, t, q)
                    if A[i][t]:
                        dirty = True
            for j in range(t + 1, c):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_op(j, t, q)
                    if A[t][j]:
                        dirty = True
            if not dirty and all(A[i][t] == 0 for i in range(t + 1, r)) \
                    and all(A[t][j] == 0 for j in range(t + 1, c)):
                if A[t][t] < 0:
                    A[t] = [-a for a in A[t]]
                    U[t] = [-a for a in U[t]]
                return True
        # unreachable

    t = 0
    while t < min(r, c):
        if not clean(t):
            break
        t += 1

    # enforce divisibility d_i | d_{i+1}: fold the offending entry into the
    # earlier pivot's row and rediagonalize the lower-right block
    mins = min(r, c)
    for _ in range(10000):
        viol = None
        for i in range(mins - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if b and (a == 0 or b % a != 0):
                viol = i
                break
        if viol is None:
            break
        A[viol] = [x + y for x, y in zip(A[viol], A[viol + 1])]
        U[viol] = [x + y for x, y in zip(U[viol], U[viol + 1])]
        for t2 in range(viol, mins):
            if not clean(t2):
                break
    else:
        raise LevelNerveError("Smith form divisibility pass did not settle")
    return A, U, V


def snf_diagonal_dense(mat):
    """The Smith diagonal of a dense matrix by the first-unit elimination:
    the pivot is the first unit entry in row order, else the smallest
    nonzero entry; once row operations have cleared its column, the pivot
    row is reduced modulo the pivot, which splits the pivot off when
    nothing remains, and the split divisors are brought into chain form
    by diag(a, b) ~ diag(gcd, lcm)."""
    size = min(len(mat), len(mat[0]) if mat else 0)
    rows = [list(r) for r in mat if any(r)]
    divs = []
    while rows:
        least = None
        for i, prow in enumerate(rows):
            if 1 in prow or -1 in prow:
                p = 1
                break
            a = min(map(abs, filter(None, prow)))
            if least is None or a < least:
                least, k = a, i
        else:
            p, i = least, k
            prow = rows[i]
        support = [t for t, a in enumerate(prow) if a]
        j = next(t for t in support if abs(prow[t]) == p)
        p = prow[j]
        clear = True
        zero = []
        for k, r in enumerate(rows):
            if r[j] and k != i:
                q = r[j] // p
                for t in support:
                    r[t] -= q * prow[t]
                if r[j]:
                    clear = False
                elif not any(r):
                    zero.append(k)
        if clear:
            p = abs(p)
            prow[:] = [a % p for a in prow]
            if any(prow):
                prow[j] = p
            else:
                divs.append(p)
                zero.append(i)
        for k in sorted(zero, reverse=True):
            del rows[k]
    chain = [d for d in divs if d > 1]
    for a in range(len(chain)):
        for b in range(a + 1, len(chain)):
            g = math.gcd(chain[a], chain[b])
            chain[a], chain[b] = g, chain[a] // g * chain[b]
    return ((1,) * (len(divs) - len(chain)) + tuple(chain)
            + (0,) * (size - len(divs)))


def tietze_resorting(ngen, rels, budget=200_000):
    """Generator elimination that sorts the relations by (len, r) before
    every step and takes the first one with a generator occurring once,
    at its least such generator; the budget is charged the length of
    every rewritten relation.  Returns (alive generators, relations,
    exhausted flag) as complexes._tietze does."""
    rels = [cyclic_reduce(r)[0] for r in rels]
    rels = [r for r in rels if r]
    alive = set(range(1, ngen + 1))
    spent = 0
    while True:
        rels.sort(key=lambda r: (len(r), r))
        pick = None
        for ri, r in enumerate(rels):
            counts = {}
            for x in r:
                counts[abs(x)] = counts.get(abs(x), 0) + 1
            for x in sorted(counts):
                if counts[x] == 1:
                    pick = (ri, x)
                    break
            if pick:
                break
        if not pick:
            break
        ri, gen = pick
        r = rels.pop(ri)
        pos = next(i for i, x in enumerate(r) if abs(x) == gen)
        rest = r[pos + 1:] + r[:pos]
        if r[pos] > 0:
            repl = [-x for x in reversed(rest)]
        else:
            repl = list(rest)
        alive.discard(gen)
        new = []
        for s in rels:
            if gen not in s and -gen not in s:
                new.append(s)
                continue
            out = []
            for x in s:
                if abs(x) == gen:
                    out.extend(repl if x > 0 else [-y for y in
                                                   reversed(repl)])
                else:
                    out.append(x)
            spent += len(out)
            out = cyclic_reduce(out)[0]
            if out:
                new.append(out)
        rels = new
        if spent > budget:
            return sorted(alive), rels, True
    return sorted(alive), rels, False


def lattice_reduce(lattice_hnf, vec):
    """Reduce an integer vector modulo a lattice given by HNF rows;
    the result is zero iff the vector lies in the lattice."""
    v = list(map(int, vec))
    for row in lattice_hnf:
        col = next(j for j, a in enumerate(row) if a)
        if v[col] % row[col] == 0:
            q = v[col] // row[col]
            if q:
                v = [a - q * b for a, b in zip(v, row)]
    return tuple(v)


def maps_onto(space, A, M, Minv, B):
    """Whether A * M = B for an invertible M with inverse Minv: every
    dense image of A's canonical generators lies in B, and then equal
    orders settle it over Z/m, while over Z the images of B's generators
    under Minv must lie in A."""
    if not all(B.contains(vec_mat(x, M)) for x in A.canonical_gens()):
        return False
    if space.m:
        return A.order == B.order
    return all(A.contains(vec_mat(y, Minv)) for y in B.canonical_gens())


def quotient_profile(inner, outer):
    """(contained, quotient is free, free rank) for inner <= outer, by the
    integer route at every modulus, prime or not: the Hermite rows of
    inner written over those of outer, and the Smith divisors of the
    coordinates."""
    m = outer.space.m
    solve = _int_coords(hnf_transform(outer.lattice))
    coords = []
    for row in inner.lattice:
        c = solve(row)
        if c is None:
            return (False, False, None)
        coords.append(list(c))
    if m:
        divs = snf_diagonal(coords)
        nonunit = sorted(d for d in divs if d != 1)
        free = all(d == m for d in nonunit)
        return (True, free, len(nonunit) if free else None)
    divs = [d for d in snf_diagonal(coords) if d]
    free = all(d == 1 for d in divs)
    rank = len(outer.lattice) - len(divs) if free else None
    return (True, free, rank)


class RestartFoldedGraph:
    """Stallings folding of the subgroup generated by the given words, by
    repeatedly scanning all edges for the first two equally labelled
    edges at one vertex, identifying their targets, and starting over."""

    def __init__(self, gens, rank: int):
        self.ambient_rank = rank
        edges = []
        nverts = 1
        for g in gens:
            w = wreduce(g)
            if max_letter(w) > rank:
                raise InvalidInputError("generator uses a letter beyond the rank")
            prev = 0
            for i, x in enumerate(w):
                nxt = 0 if i == len(w) - 1 else nverts + i
                if x > 0:
                    edges.append((prev, x, nxt))
                else:
                    edges.append((nxt, -x, prev))
                prev = nxt
            nverts += max(len(w) - 1, 0)

        parent = list(range(nverts))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        while True:
            seen = {}
            clash = None
            for (u, x, v) in edges:
                u, v = find(u), find(v)
                for key, tgt in (((u, x), v), ((v, -x), u)):
                    if key in seen and seen[key] != tgt:
                        clash = (seen[key], tgt)
                        break
                    seen[key] = tgt
                if clash:
                    break
            if not clash:
                break
            a, b = find(clash[0]), find(clash[1])
            parent[a] = b

        self._out = {}
        vset = set()
        eset = set()
        for (u, x, v) in edges:
            u, v = find(u), find(v)
            vset.update((u, v))
            eset.add((u, x, v))
            self._out[(u, x)] = v
            self._out[(v, -x)] = u
        vset.add(find(0))
        self.base = find(0)
        self.n_vertices = len(vset)
        self.n_edges = len(eset)
        self._vertices = vset

    def rank(self) -> int:
        return self.n_edges - self.n_vertices + 1

    def contains(self, word) -> bool:
        v = self.base
        for x in wreduce(word):
            v = self._out.get((v, x))
            if v is None:
                return False
        return v == self.base

    def index(self):
        """Index in the ambient free group if finite, else None."""
        for v in self._vertices:
            for x in range(1, self.ambient_rank + 1):
                if (v, x) not in self._out or (v, -x) not in self._out:
                    return None
        return self.n_vertices


def transported_faces(X, types):
    """The face tables of X, found per simplex from its provenance (type
    key, transport F): each vertex and face shadow of the type (types as
    complexes._types builds them) is moved by F and canonicalized; the
    faces are listed in the order of the sorted vertex encodings and
    looked up by encoding one rank down."""
    by_key = {td.key: td for td in types}
    out = []
    for k, block in enumerate(X.provenance):
        if k == 0:
            out.append(tuple(() for _ in block))
            continue
        index = {enc: i for i, enc in enumerate(X.encodings[k - 1])}
        rows = []
        for key, F in block:
            td = by_key[key]
            verts = [canonical_form(sp_action(F, v))
                     for v in td.vert_shadows]
            faces = [canonical_form(sp_action(F, f))
                     for f in td.face_shadows]
            order = sorted(range(k + 1), key=lambda j: verts[j])
            rows.append(tuple(index[faces[j]] for j in order))
        out.append(tuple(rows))
    return tuple(out)


def equivalent(d1, d2) -> bool:
    """Attribute-preserving graph isomorphism, decided by direct search;
    the reference for canonical_form.

    Kinds must agree; equivariant values are compared through their framed
    parts (the action is transported by sp_action but is not part of the
    equivalence relation)."""
    if d1.kind != d2.kind:
        return False
    if isinstance(d1, EquivariantDecomposition):
        d1 = d1.framed()
        d2 = d2.framed()
    if (d1.space.g, d1.space.m, d1.n, d1.V) != \
            (d2.space.g, d2.space.m, d2.n, d2.V):
        return False
    if sorted(d1._vertex_payload(v) for v in range(d1.V)) != \
            sorted(d2._vertex_payload(v) for v in range(d2.V)):
        return False
    edges2 = sorted((u, v) + d2._edge_payload(e)
                    for e, (u, v) in enumerate(d2.edges))

    def assign(mapping, v):
        if v == d1.V:
            edges1 = sorted((min(mapping[u], mapping[w]),
                             max(mapping[u], mapping[w]))
                            + d1._edge_payload(e)
                            for e, (u, w) in enumerate(d1.edges))
            return edges1 == edges2
        for target in range(d1.V):
            if target in mapping.values():
                continue
            if d1._vertex_payload(v) != d2._vertex_payload(target):
                continue
            mapping[v] = target
            if assign(mapping, v + 1):
                return True
            del mapping[v]
        return False

    return assign({}, 0)


def checked_transport(F, d):
    """sp_action(F, d) for a framed or equivariant d, built through the
    checking constructor from the moved groups and frames (and the
    conjugated matrices) instead of as a copy of d."""
    sp = d.space
    F = sp.reduce_matrix(F)
    parts = ([vg.apply(F) for vg in d.vertex_groups],
             [eg.apply(F) for eg in d.edge_groups], d.edges,
             [sp.mat_apply(f, F) for f in d.frames], d.marks, d.n)
    if isinstance(d, EquivariantDecomposition):
        inv = sp.symplectic_inverse(F)
        return EquivariantDecomposition(
            sp, *parts, d.group,
            [sp.mat_mul(sp.mat_mul(inv, M), F) for M in d.matrices],
            d.vperms, d.eperms)
    return FramedDecomposition(sp, *parts)


def transport_mismatches(F, d):
    """What differs between sp_action(F, d) and checked_transport(F, d):
    'class', each differing attribute, 'canonical_form' and 'validate'."""
    got, want = sp_action(F, d), checked_transport(F, d)
    bad = [] if type(got) is type(want) else ["class"]
    bad += [f for f in sorted(set(vars(got)) | set(vars(want)))
            if getattr(got, f, None) != getattr(want, f, None)]
    if canonical_form(got) != canonical_form(want):
        bad.append("canonical_form")
    if validate(got) != validate(want):
        bad.append("validate")
    return bad


def action_natural_every_element(d):
    """Whether the action of an equivariant decomposition is natural,
    decided element by element: every matrix is symplectic and maps each
    edge and vertex group onto that of its image, edges go to edges on the
    image ends, frames to sign-normal images and marks onto as many marks;
    with a group, vperms and eperms compose as the group for every pair of
    elements.  The matrices are not checked to compose."""
    space = d.space
    E = len(d.edges)
    for M, vp, ep in zip(d.matrices, d.vperms, d.eperms):
        F = checked_matrix(space.g, space.m, M)
        if F.inverse is None:
            return False
        for e in range(E):
            u, v = d.edges[e]
            if tuple(sorted((vp[u], vp[v]))) != d.edges[ep[e]]:
                return False
            if not F.maps_onto(d.edge_groups[e], d.edge_groups[ep[e]]):
                return False
            if d.frames[ep[e]] != space.sign_normal(
                    space.mat_apply(d.frames[e], M)):
                return False
        for v in range(d.V):
            if not F.maps_onto(d.vertex_groups[v], d.vertex_groups[vp[v]]):
                return False
            if len(d.marks[vp[v]]) != len(d.marks[v]):
                return False
    if d.group is not None:
        elems = d.group.elements
        idx = {e: i for i, e in enumerate(elems)}
        for a in range(len(elems)):
            for b in range(len(elems)):
                c = idx[d.group.ops.mul(elems[a], elems[b])]
                vab = tuple(d.vperms[b][d.vperms[a][v]]
                            for v in range(d.V))
                if vab != d.vperms[c]:
                    return False
                eab = tuple(d.eperms[b][d.eperms[a][e]] for e in range(E))
                if eab != d.eperms[c]:
                    return False
    return True


def product_table(group):
    """(mul, inv) by index, brute force from the ops of a deck group:
    mul[a][b] is the index of elements[a] * elements[b] and inv[a] that of
    the inverse of elements[a].  This is the d x d table that a deck group
    built before it kept its Cayley graph."""
    elems, ops = group.elements, group.ops
    idx = {e: i for i, e in enumerate(elems)}
    return (tuple(tuple(idx[ops.mul(a, b)] for b in elems) for a in elems),
            tuple(idx[ops.inv(a)] for a in elems))


def deck_perms_by_products(spec, mc, cg, tables):
    """(vperms, eperms) of the cut graph cg of mc, as lift_cut_graph built
    them from the product table `tables` of spec.group: the element h
    moves the copy through sheet s to the copy through h^-1 s.  The
    components of curve e are the cycles of right multiplication by the
    image of its word, multiplied out from the letter images and ordered by
    least sheet, which is the edge order of cg."""
    group, ops = spec.group, spec.group.ops
    mul, inv = tables
    pieces = list(zip(cg.vert_piece, cg.vert_orbit))
    vert_of = {(pi, s): v for v, (pi, orb) in enumerate(pieces)
               for s in orb}
    idx = {e: i for i, e in enumerate(group.elements)}
    edge_of, firsts = {}, []
    for e, w in enumerate(mc.words):
        x = ops.identity
        for a in wreduce(w):
            y = spec.images[abs(a) - 1]
            x = ops.mul(x, y if a > 0 else ops.inv(y))
        right = idx[x]
        for s in range(group.d):
            if (e, s) in edge_of:
                continue
            t = s
            while (e, t) not in edge_of:
                edge_of[e, t] = len(firsts)
                t = mul[t][right]
            firsts.append((e, s))
    assert len(firsts) == len(cg.edge_ends)
    vperms = tuple(tuple(vert_of[pi, mul[inv[h]][orb[0]]]
                         for pi, orb in pieces) for h in range(group.d))
    eperms = tuple(tuple(edge_of[e, mul[inv[h]][s]] for e, s in firsts)
                   for h in range(group.d))
    return vperms, eperms


def signed_schreier_vertex_group(space, hom, table, piece, orbit):
    """Image of the homology of one piece copy, as the lift computes it, by
    another route: the transversal runs over the signed letters (each
    piece generator and its inverse), and every (sheet, generator) pair
    gives a Schreier generator, tree edges included."""
    root = orbit[0]
    letters = [w for gw in piece.gens for w in (gw, winv(gw))]
    trace = table.group.trace
    res = orbit_enumerate(root, letters, lambda w, h: trace(h, w),
                          cap=table.d)
    trans = {h: wmul(*(letters[i] for i in word))
             for h, word in zip(res.elements, res.words)}
    assert set(trans) == set(orbit), "piece copy orbit transversal"
    tw = table.twords[root]
    gens = []
    for h in orbit:
        for gw in piece.gens:
            u = wmul(trans[h], gw, winv(trans[trace(h, gw)]))
            gens.append(hom.class_of(wmul(tw, u, winv(tw))))
    return space.subgroup(gens)


class RecordElimination:
    """Coordinates of subgroup words of a cover, word by word: the face
    merge of the polygon model is rebuilt, recording how each merged
    letter is expressed in the letters left on the merged face, and a
    word's loop vector is reduced through those records in merge order."""

    def __init__(self, spec):
        t = _table(spec)
        N, L = t.N, t.L
        rho = _base_rotation(spec.pres)[0]
        signed = [s for j in range(1, N + 1) for s in (j, -j)]
        seen = set()
        faces = []
        for g0 in range(t.d):
            for s0 in signed:
                g, s = g0, s0
                darts = []
                while (g, s) not in seen:
                    seen.add((g, s))
                    darts.append((g, s))
                    g, s = spec.group.step(g, s), rho[s]
                if darts:
                    faces.append([lid for lid in (t.loop_id(gg, ss)
                                                  for gg, ss in darts)
                                  if lid])
        self.records = []
        while len(faces) > 1:
            where = {}
            for fi, w in enumerate(faces):
                for s in w:
                    where.setdefault(abs(s), {})[1 if s > 0 else -1] = fi
            x = next(i for i in sorted(where) if where[i][1] != where[i][-1])
            fa, fb = where[x][1], where[x][-1]
            A, B = faces[fa], faces[fb]
            A = A[A.index(x):] + A[:A.index(x)]
            B = B[B.index(-x):] + B[:B.index(-x)]
            rec = [0] * (L + 1)
            for s in A[1:]:
                rec[abs(s)] -= 1 if s > 0 else -1
            self.records.append((x, rec))
            faces = [w for fi, w in enumerate(faces) if fi not in (fa, fb)]
            faces.append(A[1:] + B[1:])
        self.survivors = sorted({abs(s) for s in faces[0]} if faces else ())
        self.table = t
        self.L = L
        self.Uinv = _chain(spec).Uinv

    def survivor_coords(self, word):
        end, ids = self.table.rewrite(0, word)
        assert end == 0, "word must lie in the cover subgroup"
        v = [0] * (self.L + 1)
        for s in ids:
            v[abs(s)] += 1 if s > 0 else -1
        for x, rec in self.records:
            c = v[x]
            if c:
                v[x] = 0
                for k in range(1, self.L + 1):
                    if rec[k]:
                        v[k] += c * rec[k]
        return [v[sid] for sid in self.survivors]

    def class_int(self, word):
        sv = self.survivor_coords(word)
        return list(vec_mat(sv, self.Uinv)) if sv else []


def deck_matrices_by_sheets(spec, m):
    """The deck matrices of cover_homology(spec, m), each read from the
    cover: the matrix of the element h holds the classes of the basis
    words read from the sheet of h^-1, each the signed sum of the class
    rows of the loops its rewrite crosses, reduced mod m (over Z at 0)."""
    t, chain = _table(spec), _chain(spec)
    width = len(chain.class_rows[0])
    mats = []
    for sheet in spec.group.inverse:
        rows = []
        for word in chain.basis_words:
            end, ids = t.rewrite(sheet, word)
            assert end == sheet, "basis word closes up on every sheet"
            cls = [0] * width
            for i in ids:
                sign = 1 if i > 0 else -1
                for k, x in enumerate(chain.class_rows[abs(i)]):
                    cls[k] += sign * x
            rows.append(tuple(x % m if m else x for x in cls))
        mats.append(tuple(rows))
    return tuple(mats)


def values_by_words(res, root, step):
    """The value of each element of an OrbitResult, its breadth-first word
    replayed from the seed through moves: step(value, x, j) along every
    letter j, x the element the letter leaves."""
    values = []
    for word in res.words:
        x, value = 0, root
        for j in word:
            x, value = res.moves[x][j], step(value, x, j)
        values.append(value)
    return values


def schreier_edges_by_words(res):
    """The edges (x, j, y) of an orbit's Schreier graph off its
    breadth-first tree: those where the word of y is not the word of x
    followed by j, in the order of x and then of j."""
    return [(x, j, y) for x, row in enumerate(res.moves)
            for j, y in enumerate(row) if res.words[y] != res.words[x] + (j,)]


def forest_by_queue(moves, root, step):
    """A breadth-first spanning forest of the graph on range(len(moves)),
    moves[x][j] the end of edge (x, j), rooted at 0 and then at each least
    vertex not yet reached, searched with a deque: the tree path of each
    vertex, as its list of edges (x, j) from its root, replayed through
    step from root, and the edges off the forest in the order the deque
    expands their first ends."""
    paths, other, order = {}, [], deque()
    for r in range(len(moves)):
        if r in paths:
            continue
        paths[r] = []
        order.append(r)
        while order:
            x = order.popleft()
            for j, y in enumerate(moves[x]):
                if y in paths:
                    other.append((x, j, y))
                else:
                    paths[y] = paths[x] + [(x, j)]
                    order.append(y)
    values = []
    for y in range(len(moves)):
        value = root
        for x, j in paths[y]:
            value = step(value, x, j)
        values.append(value)
    return values, other


def rref_by_lists(rows, p, n):
    """The reduced row echelon form over F_p of integer rows of length n,
    as {pivot column: row} in the order the pivots are found, eliminated
    on lists of entries at every prime, p = 2 included: each new row is
    cleared at the known pivots, and a surviving row is scaled to a unit
    pivot and cleared out of the basis rows."""
    basis = {}
    for r in rows:
        v = [a % p for a in r]
        for j, b in basis.items():
            c = v[j]
            if c:
                v = [(a - c * x) % p for a, x in zip(v, b)]
        j = next((t for t, a in enumerate(v) if a), None)
        if j is None:
            continue
        if v[j] != 1:
            s = pow(v[j], -1, p)
            v = [a * s % p for a in v]
        for i, b in basis.items():
            c = b[j]
            if c:
                basis[i] = [(a - c * x) % p for a, x in zip(b, v)]
        basis[j] = v
        if len(basis) == n:
            break
    return basis


def rref_transform_by_lists(rows, p):
    """rref_by_lists of the rows with an identity block appended, as (h, t)
    pairs in pivot order with t * rows = h mod p."""
    k = len(rows)
    n = len(rows[0]) if rows else 0
    basis = rref_by_lists([list(r) + [1 if j == i else 0 for j in range(k)]
                           for i, r in enumerate(rows)], p, n + k)
    return [(basis[j][:n], basis[j][n:]) for j in sorted(basis)]
