"""Graphs of subgroups of a symplectic module, with validity conditions.

A decomposition is a finite connected graph (loops and parallel edges
allowed) whose vertices and edges carry subgroups of one ambient module
H = H_1(S_g, Z/m), together with a marking that distributes the puncture
labels {1..n} over the vertices.  The package meaning of "valid" is the
conjunction of six independently reported conditions:

  i.   gluing the vertex groups along all the edge groups embeds into H
       with free cokernel of rank b_1(Y);
  ii.  the markings partition {1..n};
  iii. the span E of all edge groups pairs to zero with every vertex group
       (so E is isotropic), and distinct vertex groups pair to zero with
       each other (cycles on disjoint pieces do not meet);
  iv.  edge groups are cyclic; every edge set whose removal keeps Y
       connected spans a free primitive subgroup of rank its size, and
       every minimal disconnecting edge set admits generators summing to zero;
  v.   a vertex with at most two ends-plus-marks carries a group of rank
       at least two (a loop contributes two ends to its vertex);
  vi.  each vertex group splits as the span of its incident edge groups
       plus a nondegenerate symplectic complement.

Condition iv is decided in closed form.  Connected-complement edge sets
are downward closed, so only the cotrees (complements of spanning trees)
matter, and under the bond clause every cotree spans the span S of all
edge groups: each tree generator is a unit combination of the cotree
generators on its fundamental cut.  So iv holds exactly when the edge
groups are cyclic, S is primitive and free of rank b_1(Y), and the bond
clause holds.  ("Free" matters only when m has two or more prime factors:
<(3, 0)> in (Z/6)^2 is primitive but is Z/2.)  The bond clause is decided
on one spanning tree T, the breadth-first tree from vertex 0 (tree_walk);
the argument below holds for every spanning tree, so the verdict does not
depend on which.  Write each tree generator as c_t = sum a_{t,f} c_f
over the cotree generators; the clause holds exactly when a_{t,f} is a
unit for f on the fundamental cut of t and 0 off it, and the gains
-a_{t,f} s_t(f), with s_t the +-1 sign across that cut and s_t(t) = 1,
equal u_f / u_t for unit potentials u.  If so, the u_e c_e sum to zero
across every fundamental cut, hence across every cut.  Conversely, every
cotree is then a basis of S and the fundamental cuts give the support and
the units; for tree edges t_i at a vertex x linked through cotree edges,
with X_0 the part of T - {t_i} holding x, the bond delta(X_0) makes their
ratios agree, and a cycle in the line graph of a tree stays at one vertex.

Condition vi is decided in closed form: a vertex group
splits as required exactly when its radical is the span of its incident
edge groups and every Smith divisor d of the Gram matrix of its
generators has gcd(d, m) in {1, m}.  Over Z/m the divisors say that the
quotient by the radical is free, and the form is then perfect on it,
since it embeds the quotient into its own dual, which has no more
elements; over Z they say that the form on the quotient is unimodular.

Condition i is decided in closed form too: the group glued from the
vertex groups maps onto its image in H, so it embeds exactly when its
invariant factors, read off the relations of the gluing, are those of
the image (see _pushout_report).

Every lattice question of validate and leq (coordinates, cokernel
invariants, free quotients, the divisor test) is asked of SympSpace and
SympSubgroup, and the symplectic module alone chooses how to answer it.
The answers about one lattice are kept on its interned subgroup and
computed once per value: the coordinates of a vector over a vertex group
(_pushout_report), orthogonality of two groups and isotropy (iii), the
cyclic generator of an edge group (_bond_clause), the radical and
whether a vertex group splits off its radical (vi).  The space keeps the
span of a tuple of groups (E, the pushout image, each incident span) and
by value the gluing's cokernel invariants and the cotree solver.  The
answers about one graph (the tree, cotree and cut signs, _tree_cuts) are
computed when a decomposition is constructed and shared by the copies
sp_action makes.  So every simplex is still checked in full, on answers
its values already hold.
Matrices are read through their symplectic.checked_matrix records:
whether a matrix is symplectic, its inverse, its reduced rows, whether it
maps a subgroup onto another and the sign-normal image of a frame.  This
module never packs a row and keeps no matrix memo of its own.

Framed decompositions add a generator per edge group, stored modulo sign
(lexicographically smallest of the pair).  Equivariant decompositions add
a finite group acting on the graph together with its matrices on H;
naturality of groups, marks and frames is checked on the group's
generators, and the tables and matrices must be those that cayley_fill
forms from the generators' (per element when no group is recorded).

Equivalence is attribute-preserving graph isomorphism; canonical_form
returns a byte string that is equal exactly for equivalent plain or framed
decompositions (equivariant values are compared through their framed
part), the repr of the tuple canonical_serial returns.  The partial order
leq, the symplectic transport sp_action, and the two constructors
induced_from_multicurve / induced_from_lift realize decompositions from
catalog multicurves, directly on the base surface or through a finite
cover with its deck action.

All outputs are deterministic: the spanning tree of the bond clause,
subgraph enumerations and canonical forms depend only on the stored
vertex and edge order.
"""

import itertools
import math

from .errors import (LevelNerveError, InvalidInputError, UnsupportedError,
                     ValidationError)
from .symplectic import (SympSpace, SympSubgroup, cayley_fill, check_int,
                         check_ints, check_perm, check_shape, checked_matrix,
                         deck_matrices, perm_mul, tree_walk)
from .surface import presentation
from .catalog import multicurve_catalog
from .stablegraph import components, relabelings

_CONDITIONS = ("i", "ii", "iii", "iv", "v", "vi", "frame", "action")


# --------------------------------------------------------------------------
# decomposition values


class GraphDecomposition:
    """Connected graph with subgroup data in one ambient symplectic module.

    Edges are unordered pairs of vertex indices; parallel edges and loops
    are allowed and keep their stored order.  Construction checks only
    well-formedness (shared ambient space, endpoints in range, marks within
    {1..n}, connectivity); the six validity conditions are the job of
    validate().  It also stores, per vertex, its incident edges in stored
    order, a loop once (incident), and the graph's part of the bond clause
    of iv (_bonds, see _tree_cuts), which the copies below share.

    sp_action and EquivariantDecomposition.framed() keep the graph of a
    value that was already checked, so they copy it (_copy) with new
    groups, frames or class instead of constructing and checking it
    again."""

    kind = "plain"
    # the attributes a value is made of; _copy carries them over
    _fields = ("space", "n", "V", "edges", "marks", "_incident", "_bonds",
               "vertex_groups", "edge_groups")

    # kept beside _fields: a field that sp_action changes and that enters
    # canonical_serial must join the payload
    def payload(self):
        """What a value carries on its graph: the vertex and edge groups,
        and on framed values the frames.  sp_action keeps the graph, marks
        and kind, so the values of one orbit with equal payloads are equal,
        and complexes._orbit_types keys canonical_serial by payload."""
        return (self.vertex_groups, self.edge_groups)

    def __init__(self, space, vertex_groups, edge_groups, edges, marks=None,
                 n=0):
        self.space = space
        check_int(n, "number of marks")
        self.n = n
        if self.n < 0:
            raise InvalidInputError("negative number of marks")
        self.vertex_groups = tuple(self._coerce(g) for g in vertex_groups)
        self.V = len(self.vertex_groups)
        if self.V == 0:
            raise InvalidInputError("decomposition needs at least one vertex")
        self.edge_groups = tuple(self._coerce(g) for g in edge_groups)
        es = []
        for e in edges:
            u, v = check_ints(e, "edge endpoint", 2)
            if not (0 <= u < self.V and 0 <= v < self.V):
                raise InvalidInputError("edge endpoint out of range")
            es.append((min(u, v), max(u, v)))
        self.edges = tuple(es)
        if len(self.edges) != len(self.edge_groups):
            raise InvalidInputError("edge group count mismatch")
        if marks is None:
            marks = [()] * self.V
        mk = []
        for s in marks:
            t = tuple(sorted(set(check_ints(s, "mark label"))))
            if any(not (1 <= x <= self.n) for x in t):
                raise InvalidInputError("mark label outside 1..n")
            mk.append(t)
        if len(mk) != self.V:
            raise InvalidInputError("marking count mismatch")
        self.marks = tuple(mk)
        if len(components(self.V, self.edges)) != 1:
            raise InvalidInputError("decomposition graph is not connected")
        inc = [[] for _ in range(self.V)]
        for e, (u, v) in enumerate(self.edges):
            inc[u].append(e)
            if v != u:
                inc[v].append(e)
        self._incident = tuple(map(tuple, inc))
        self._bonds = _tree_cuts(self.V, self.edges)

    def _copy(self, cls, **fields):
        """A cls value on this value's graph: the attributes cls._fields
        are taken from self, except those given in fields, and nothing is
        coerced or checked again."""
        new = object.__new__(cls)
        new.__dict__.update({f: getattr(self, f) for f in cls._fields},
                            **fields)
        return new

    def _coerce(self, g):
        if isinstance(g, SympSubgroup):
            sub = g
        else:
            sub = self.space.subgroup([check_ints(r, "subgroup entry")
                                       for r in g])
        if (sub.space.g, sub.space.m) != (self.space.g, self.space.m):
            raise InvalidInputError("subgroup from a different ambient space")
        return sub

    def rank(self):
        return len(self.edges)

    def b1(self):
        return len(self.edges) - self.V + 1

    def degrees(self):
        """Edge ends per vertex; a loop contributes two."""
        d = [0] * self.V
        for (u, v) in self.edges:
            d[u] += 1
            d[v] += 1
        return tuple(d)

    def incident(self, v):
        return self._incident[v]

    def _vertex_payload(self, v):
        return (self.vertex_groups[v].key(), self.marks[v])

    def _edge_payload(self, e):
        return (self.edge_groups[e].key(),)

    def __repr__(self):
        return (f"{type(self).__name__}(g={self.space.g}, m={self.space.m}, "
                f"{self.V} vertices, {len(self.edges)} edges)")


class FramedDecomposition(GraphDecomposition):
    """Graph decomposition with a chosen generator per edge group, stored
    modulo sign."""

    kind = "framed"
    _fields = GraphDecomposition._fields + ("frames",)

    def payload(self):
        return (self.vertex_groups, self.edge_groups, self.frames)

    def __init__(self, space, vertex_groups, edge_groups, edges, frames,
                 marks=None, n=0):
        super().__init__(space, vertex_groups, edge_groups, edges, marks, n)
        fr = [space.sign_normal(check_ints(f, "frame entry")) for f in frames]
        if len(fr) != len(self.edges):
            raise InvalidInputError("frame count mismatch")
        self.frames = tuple(fr)

    def _edge_payload(self, e):
        return (self.edge_groups[e].key(), self.frames[e])


class EquivariantDecomposition(FramedDecomposition):
    """Framed decomposition with a finite group acting on the graph.

    For the element with index k, vperms[k]/eperms[k] permute vertices and
    edges while matrices[k] acts on the ambient module; the pairing is such
    that the group transported to the image vertex is the matrix image:
    D[vperm(v)] = D[v] * M.  rank() counts edge orbits."""

    kind = "equivariant"
    _fields = FramedDecomposition._fields + ("group", "matrices", "vperms",
                                             "eperms")

    def __init__(self, space, vertex_groups, edge_groups, edges, frames,
                 marks=None, n=0, group=None, matrices=(), vperms=(),
                 eperms=()):
        super().__init__(space, vertex_groups, edge_groups, edges, frames,
                         marks, n)
        self.group = group
        self.matrices = tuple(checked_matrix(space.g, space.m,
                                             tuple(map(tuple, M))).rows
                              for M in matrices)
        self.vperms = tuple(check_perm(p, self.V, "vertex action")
                            for p in vperms)
        self.eperms = tuple(check_perm(p, len(self.edges), "edge action")
                            for p in eperms)
        if not (len(self.matrices) == len(self.vperms) == len(self.eperms)):
            raise InvalidInputError("action tables have unequal lengths")

    def framed(self):
        """The underlying framed decomposition, action forgotten."""
        return self._copy(FramedDecomposition)

    def edge_orbits(self):
        return components(len(self.edges), [(e, f) for p in self.eperms
                                            for e, f in enumerate(p)])

    def rank(self):
        return len(self.edge_orbits())


# --------------------------------------------------------------------------
# validity


def _pushout_report(space, vgroups, edges, egroups, strict=False):
    """Glue the vertex groups along all the edges and map to the ambient.

    This computes the abelianized fundamental group of the graph of groups
    minus its free part: generators are the canonical generators of each
    vertex group, relations are each block's internal relations plus the
    identification of the two endpoint copies of every edge group (loops
    identify a copy with itself and contribute nothing).  An edge group
    not contained in an endpoint's group breaks the graph-of-groups
    structure: with strict=True that is reported as undefined, otherwise
    the edge is skipped and the containment failure is left to the local
    conditions.  Returns (defined, injective, image subgroup).

    The relations lie in the kernel of the map to H, so the glued group
    P = (Z/m)^total / <rel> (Z^total over Z) maps onto the image, and the
    map is injective exactly when P and the image have the same invariant
    factors: equal orders over Z/m, and over Z a torsion-free P of the
    image's rank.  The invariants of P are SympSpace.cokernel_invariants
    of the relations."""
    gens = [vg.canonical_gens() for vg in vgroups]
    offs = [0]
    for gg in gens:
        offs.append(offs[-1] + len(gg))
    total = offs[-1]
    rel = []
    for v, vg in enumerate(vgroups):
        for t in vg.relations():
            r = [0] * total
            r[offs[v]:offs[v + 1]] = t
            rel.append(r)
    for e, (u, v) in enumerate(edges):
        for x in egroups[e].canonical_gens():
            cu = vgroups[u].coords(x)
            cv = vgroups[v].coords(x)
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
    image = space.span(vgroups)
    injective = space.cokernel_invariants(rel, total) == image.invariants
    return (True, injective, image)


def _tree_cuts(V, edges):
    """The graph's part of the bond clause: (cotree, cuts) for the
    breadth-first tree from vertex 0 (tree_walk), where cuts holds, per tree
    edge t in stored order, t and the signs (a in X) - (b in X) of the
    cotree edges (a, b), X the side of the fundamental cut of t that holds
    its first end.  A vertex lies below t when its tree path, the tree
    edges from 0 to it as the bits of an int, holds t."""
    nbrs = [[] for _ in range(V)]
    for e, (u, v) in enumerate(edges):
        nbrs[u].append((e, v))
        nbrs[v].append((e, u))
    path, _ = tree_walk([[y for _, y in row] for row in nbrs], 0,
                        lambda p, x, j: p | 1 << nbrs[x][j][0])
    # the paths to the ends of a tree edge differ by that edge alone
    cotree = tuple(f for f, (a, b) in enumerate(edges)
                   if path[a] ^ path[b] != 1 << f)
    ends = [edges[f] for f in cotree]
    cuts = []
    for t, (a, b) in enumerate(edges):
        if path[a] ^ path[b] == 1 << t:
            # X is the subtree below t when it holds a, else the rest
            below = [p >> t & 1 for p in path]
            s = 1 if below[a] else -1
            cuts.append((t, tuple([s * (below[x] - below[y])
                                   for x, y in ends])))
    return cotree, tuple(cuts)


def _bond_clause(d):
    """The bond clause of iv, for cyclic edge groups, on the cotree and the
    cut signs of the spanning tree that construction stored (d._bonds),
    and the cyclic generator each edge group keeps.  The potentials are
    read along the tree_walk of the links and must agree on the others."""
    cotree, cuts = d._bonds
    if not cuts:
        # one vertex: no bonds, and no coordinates to read
        return True
    space = d.space
    m = space.m
    gens = [eg.generator() for eg in d.edge_groups]
    # when the cotree generators are dependent, S (of rank b_1) holds a
    # tree generator outside their span, whose coordinates are then None
    coords = space.solver([gens[f] for f in cotree], space.dim)
    # links[e] holds (e2, g): the potential of e2 is g times that of e.
    # Over Z every gain is +-1, and these stay apart modulo q = 3.
    q = m or 3
    links = [[] for _ in d.edges]
    for t, signs in cuts:
        ct = coords(gens[t])
        if ct is None:
            return False
        for f, s, c in zip(cotree, signs, ct):
            c = c % m if m else c
            # a unit on the cut of t, zero off it
            if (math.gcd(c, m) != 1) if s else c:
                return False
            if s:
                g = -c * s % q
                links[t].append((f, g))
                links[f].append((t, pow(g, -1, q)))
    pot, other = tree_walk([[f for f, _ in row] for row in links], 1,
                           lambda p, x, j: p * links[x][j][1] % q)
    return all(pot[y] == pot[x] * links[x][j][1] % q for x, j, y in other)


def validate(d, conditions=None):
    """Violated condition labels, in the fixed order i..vi, frame, action.

    `conditions`, a collection but not a string of labels, restricts the
    checked labels; the default checks all the kind of value carries."""
    if not isinstance(d, GraphDecomposition):
        raise InvalidInputError("not a decomposition")
    if isinstance(conditions, str):
        raise InvalidInputError("conditions must be a collection of labels")
    space = d.space
    wanted = list(_CONDITIONS[:6])
    if isinstance(d, FramedDecomposition):
        wanted.append("frame")
    if isinstance(d, EquivariantDecomposition):
        wanted.append("action")
    if conditions is not None:
        conditions = set(check_shape(conditions, "conditions"))
        unknown = conditions - set(_CONDITIONS)
        if unknown:
            raise InvalidInputError(f"unknown conditions {sorted(unknown)}")
        wanted = [c for c in wanted if c in conditions]
    bad = []

    if "i" in wanted:
        defined, injective, image = _pushout_report(
            space, d.vertex_groups, d.edges, d.edge_groups)
        if not (defined and injective and image.corank() == d.b1()):
            bad.append("i")

    if "ii" in wanted:
        labels = [x for mk in d.marks for x in mk]
        if sorted(labels) != list(range(1, d.n + 1)):
            bad.append("ii")

    if "iii" in wanted or "iv" in wanted:
        # the span of all edge groups: E for iii, S for iv
        E = space.span(d.edge_groups)

    if "iii" in wanted:
        vgroups = d.vertex_groups
        ok = E.is_isotropic() and all(
            vg.orthogonal(E) and all(map(vg.orthogonal, vgroups[v + 1:]))
            for v, vg in enumerate(vgroups))
        if not ok:
            bad.append("iii")

    if "iv" in wanted:
        ok = (all(eg.is_cyclic() for eg in d.edge_groups)
              and E.invariants == (space.m,) * d.b1() and E.is_primitive()
              and _bond_clause(d))
        if not ok:
            bad.append("iv")

    if "v" in wanted:
        deg = d.degrees()
        ok = all(d.vertex_groups[v].rank >= 2
                 for v in range(d.V) if deg[v] + len(d.marks[v]) <= 2)
        if not ok:
            bad.append("v")

    if "vi" in wanted:
        if not all(vg.radical() == space.span(
                d.edge_groups[e] for e in d.incident(v))
                and vg.splits_off_radical()
                for v, vg in enumerate(d.vertex_groups)):
            bad.append("vi")

    if "frame" in wanted:
        ok = all(space.subgroup([f]) == eg
                 for f, eg in zip(d.frames, d.edge_groups))
        if not ok:
            bad.append("frame")

    if "action" in wanted:
        if not _action_natural(d):
            bad.append("action")

    return bad


def _action_natural(d: EquivariantDecomposition):
    """Whether the action tables act naturally: the matrix M_k of each
    checked element k is symplectic, and k maps edge e to an edge on the
    image ends, edge and vertex groups onto the groups of their images
    (D[vperms[k][v]] = D[v] * M_k), frames to the sign-normal images of
    frames, and marks onto as many marks.

    Without a group every element is checked.  With a group, only the
    letter images s = col[0] of the columns col = group.act[j] are, and
    cayley_fill must rebuild vperms, eperms and matrices (deck_matrices)
    from theirs: vperms[col[a]] = vperms[s] o vperms[a] and M_{col[a]} =
    M_a . M_s for every element a, and the identity acts trivially.  If a
    and s are natural, so is a*s: M_a . M_s is symplectic, D[v] * M_{a*s}
    = D[vperms[a][v]] * M_s = D[vperms[a*s][v]], and edges, frames (the
    sign normal commutes with linear maps) and marks follow alike.  The
    generators of a finite group reach every element without inverses, so
    by induction the check is never weaker than checking every element,
    and only the generator images get checked_matrix records."""
    space = d.space
    E = len(d.edges)
    elements = range(len(d.matrices))
    if d.group is not None:
        if len(d.matrices) != d.group.d:
            return False
        cols = {col[0]: col for col in d.group.act}  # one per image
        act = tuple(cols.values())
        for perms, n in ((d.vperms, d.V), (d.eperms, E)):
            if cayley_fill(tuple(range(n)), [perms[s] for s in cols], act,
                           perm_mul) != perms:
                return False
        if deck_matrices(space.g, space.m, tuple(d.matrices[s] for s in cols),
                         act) != d.matrices:
            return False
        elements = cols
    for k in elements:
        F = checked_matrix(space.g, space.m, d.matrices[k])
        if F.inverse is None:
            return False
        vp, ep = d.vperms[k], d.eperms[k]
        for e in range(E):
            u, v = d.edges[e]
            if tuple(sorted((vp[u], vp[v]))) != d.edges[ep[e]]:
                return False
            if not F.maps_onto(d.edge_groups[e], d.edge_groups[ep[e]]):
                return False
            if d.frames[ep[e]] != F.frame_image(d.frames[e]):
                return False
        for v in range(d.V):
            if not F.maps_onto(d.vertex_groups[v], d.vertex_groups[vp[v]]):
                return False
            if len(d.marks[vp[v]]) != len(d.marks[v]):
                return False
    return True


# --------------------------------------------------------------------------
# equivalence and canonical forms


def canonical_serial(d) -> tuple:
    """The least serialized form of d, a nested tuple of ints and strings
    that is equal exactly for equivalent decompositions.

    Minimizes the serialized form over all vertex relabelings compatible
    with the payload classes.  Equivalence compares the graph with its
    subgroup and frame data; an equivariant value is canonicalized through
    its framed part, the action itself is not part of the invariant.  Every
    relabeling gives label l to a vertex with the l-th least invariant,
    whose first part is the vertex payload, so the vertex tuple is the same
    under all of them and only the sorted edge list is minimized.  Raises
    ResourceLimitError above stablegraph.MAX_CANONICAL_PERMS relabelings.

    It serves as an in-memory key (an orbit's, say) where the bytes of
    canonical_form are not needed: tuples of ints and strings have an
    injective repr, so two serials are equal exactly when their
    canonical forms are."""
    if isinstance(d, EquivariantDecomposition):
        d = d.framed()
    vpay = [d._vertex_payload(v) for v in range(d.V)]
    epay = [d._edge_payload(e) for e in range(len(d.edges))]
    loop = [u == v for u, v in d.edges]
    inv = [(vpay[v], tuple(sorted((epay[e], loop[e]) for e in inc)))
           for v, inc in enumerate(d._incident)]
    vert = tuple((label,) + p for label, (p, _) in enumerate(sorted(inv)))
    edges = min(tuple(sorted((min(o[u], o[v]), max(o[u], o[v])) + p
                             for (u, v), p in zip(d.edges, epay)))
                for o in relabelings(inv))
    return (d.kind, d.space.g, d.space.m, d.n, vert, edges)


def canonical_form(d) -> bytes:
    """Byte string equal exactly for equivalent decompositions: the repr
    of canonical_serial(d), encoded.  This is the public encoding that
    complexes store, sort and serialize."""
    return repr(canonical_serial(d)).encode()


# --------------------------------------------------------------------------
# partial order


def _connected_subgraphs(d):
    """(vertex tuple, edge tuple) pairs forming connected subgraphs: the
    edges lie among the vertices and join them into one component, so the
    whole graph falls into V - len(vertices) + 1 components."""
    out = []
    for r in range(1, d.V + 1):
        for vs in itertools.combinations(range(d.V), r):
            pool = [e for e, (u, v) in enumerate(d.edges)
                    if u in vs and v in vs]
            for k in range(len(pool) + 1):
                for es in itertools.combinations(pool, k):
                    parts = components(d.V, [d.edges[e] for e in es])
                    if len(parts) == d.V - r + 1:
                        out.append((vs, es))
    return out


def leq(d1, d2) -> bool:
    """Whether d1 is below d2: edge groups a subset, and every d1 vertex
    group glued from a connected subgraph of d2 carrying its marks."""
    if (d1.space.g, d1.space.m) != (d2.space.g, d2.space.m) or d1.n != d2.n:
        raise InvalidInputError("order comparison across ambient spaces")
    space = d1.space
    keys2 = {eg.key() for eg in d2.edge_groups}
    if any(eg.key() not in keys2 for eg in d1.edge_groups):
        return False
    candidates = _connected_subgraphs(d2)
    for v1 in range(d1.V):
        target = d1.vertex_groups[v1]
        want_marks = d1.marks[v1]
        found = False
        for vs, es in candidates:
            got = tuple(sorted(x for v in vs for x in d2.marks[v]))
            if got != want_marks:
                continue
            defined, injective, image = _pushout_report(
                space, [d2.vertex_groups[v] for v in vs],
                [(vs.index(d2.edges[e][0]), vs.index(d2.edges[e][1]))
                 for e in es],
                [d2.edge_groups[e] for e in es], strict=True)
            if not (defined and injective):
                continue
            if target.quotient_rank(image) == len(es) - len(vs) + 1:
                found = True
                break
        if not found:
            return False
    return True


# --------------------------------------------------------------------------
# symplectic transport


def sp_action(F, d):
    """Transport a decomposition through a symplectic matrix.

    The transported value keeps the graph, marks and action tables of d,
    so it is a copy of d with the image groups, frames and conjugated
    matrices.  F is looked up once in checked_matrix, and the frames are
    read through its frame_image memo; the conjugates come back reduced
    from mat_mul and go through no memo, since checking every one would
    cost an is_symplectic per matrix per transport."""
    space = d.space
    checked = checked_matrix(space.g, space.m, tuple(map(tuple, F)))
    if checked.inverse is None:
        raise InvalidInputError("matrix is not symplectic over the ambient")
    F = checked.rows
    fields = {"vertex_groups": tuple(vg.apply(F) for vg in d.vertex_groups),
              "edge_groups": tuple(eg.apply(F) for eg in d.edge_groups)}
    if isinstance(d, FramedDecomposition):
        fields["frames"] = tuple(map(checked.frame_image, d.frames))
    if isinstance(d, EquivariantDecomposition):
        fields["matrices"] = tuple(
            space.mat_mul(space.mat_mul(checked.inverse, M), F)
            for M in d.matrices)
    return d._copy(type(d), **fields)


# --------------------------------------------------------------------------
# constructors


def _require_catalog(g, n, mc):
    cat = multicurve_catalog(g, n)
    if (mc.g, mc.n) != (g, n) or mc.key not in {c.key for c in cat}:
        raise UnsupportedError("multicurve is not a catalog representative")


def induced_from_multicurve(g, n, m, mc, space=None) -> FramedDecomposition:
    """The framed decomposition a catalog multicurve cuts out of the base:
    vertex groups are the homology images of the complementary pieces,
    edge groups the cyclic spans of the curve classes, frames the classes
    themselves, marks the punctures of each piece.

    The value lives in `space`, H_1(S_g, Z/m), when one is given, so that
    the decompositions of one build share its subgroup images; a fresh
    space otherwise."""
    _require_catalog(g, n, mc)
    if space is None:
        space = SympSpace(g, m)
    elif (space.g, space.m) != (g, m):
        raise InvalidInputError("space is not H_1 of the given genus and "
                                "modulus")
    pres = presentation(g, n)
    vgroups = [space.subgroup([pres.homology_class(w, m) for w in p.gens])
               for p in mc.pieces]
    marks = [tuple(sorted(j for j, _ in p.marks)) for p in mc.pieces]
    classes = [pres.homology_class(w, m) for w in mc.words]
    egroups = [space.subgroup([c]) for c in classes]
    d = FramedDecomposition(space, vgroups, egroups, mc.graph.edges,
                            classes, marks, n)
    viol = validate(d)
    if viol:
        raise ValidationError("decomposition",
                              f"induced decomposition violates {viol}")
    return d


def induced_from_lift(spec, mc, m) -> EquivariantDecomposition:
    """The equivariant decomposition of the cover homology cut out by the
    preimage of a catalog multicurve, deck action included: the groups
    spanned by the lifted cut graph's piece-copy classes and curve
    classes, acted on by its deck permutations and the deck matrices."""
    from . import covers  # here, so that the nerve path does not load it
    _require_catalog(spec.g, spec.n, mc)
    cg = covers.lift_cut_graph(spec, mc, m)
    hom = covers.cover_homology(spec, m)
    space = hom.space
    vgroups = [space.subgroup(rows) for rows in cg.vert_classes]
    egroups = [space.subgroup([c]) for c in cg.edge_class]
    d = EquivariantDecomposition(space, vgroups, egroups, cg.edge_ends,
                                 cg.edge_class, cg.vert_marks, cg.n_K,
                                 spec.group, hom.matrices, cg.vperms,
                                 cg.eperms)
    viol = validate(d, conditions=("ii", "frame", "action"))
    if viol:
        raise ValidationError("decomposition",
                              f"lifted decomposition violates {viol}")
    return d


# --------------------------------------------------------------------------
# serialization


def decomposition_to_data(d) -> dict:
    data = {
        "space": {"genus": d.space.g, "modulus": d.space.m},
        "n": d.n,
        "vertices": d.V,
        "marks": [list(mk) for mk in d.marks],
        "edges": [list(e) for e in d.edges],
        "vertex_groups": [[list(v) for v in vg.canonical_gens()]
                          for vg in d.vertex_groups],
        "edge_groups": [[list(v) for v in eg.canonical_gens()]
                        for eg in d.edge_groups],
    }
    if isinstance(d, FramedDecomposition):
        data["frames"] = [list(f) for f in d.frames]
    if isinstance(d, EquivariantDecomposition):
        data["action"] = {
            "vertex": [list(p) for p in d.vperms],
            "edge": [list(p) for p in d.eperms],
            "matrices": [[list(r) for r in M] for M in d.matrices],
        }
    return data


def decomposition_from_data(data) -> GraphDecomposition:
    try:
        space = SympSpace(data["space"]["genus"], data["space"]["modulus"])
        n = data.get("n", 0)
        V = data["vertices"]
        check_int(V, "vertex count")
        marks = data.get("marks") or [()] * V
        edges = [tuple(e) for e in data["edges"]]
        vgroups = [list(map(tuple, vg)) for vg in data["vertex_groups"]]
        egroups = [list(map(tuple, eg)) for eg in data["edge_groups"]]
        if len(vgroups) != V:
            raise InvalidInputError("vertex group count mismatch")
        if "action" in data:
            act = data["action"]
            return EquivariantDecomposition(
                space, vgroups, egroups, edges, data["frames"], marks, n,
                None, [tuple(check_ints(r, "matrix entry") for r in M)
                       for M in act["matrices"]],
                act["vertex"], act["edge"])
        if "frames" in data:
            return FramedDecomposition(space, vgroups, egroups, edges,
                                       data["frames"], marks, n)
        return GraphDecomposition(space, vgroups, egroups, edges, marks, n)
    except LevelNerveError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as ex:
        raise InvalidInputError(
            f"malformed decomposition data: {ex}") from ex
