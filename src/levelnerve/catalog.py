"""Catalog of standard multicurve representatives, one per stable-graph type.

A multicurve on S_{g,n} is realized as the preimage of a laminar diagram in
the branched double-cover model: slits joining adjacent branch points (their
lifts are the chain curves) and circles around contiguous blocks of branch
points.  A circle enclosing an odd number of branch points lifts to a single
curve double-covering it; an even one lifts to two disjoint curves.  The
complementary pieces upstairs are read off region by region downstairs: a
region's preimage is connected exactly when the region contains an odd loop
(a free branch point or an odd hole), and its fundamental group is the
even-parity part of the region group, computed by Reidemeister-Schreier
rewriting of prefix-conjugated lasso loops.

Realization has two stages.  The combinatorial stage runs on the laminar
families whose every DFS prefix it accepted (a family below a rejected one
is rejected too, see _families): in one sweep it reads the pieces and the
dual graph off the diagram, checks that the piece genera are whole, drops
the family when some piece is unstable, and checks once per distinct dual
graph that the Euler characteristics assemble to 2-2g-n and that the graph
has genus g.  The word stage runs only on the first family of each
new type, in DFS order, which is the one the catalog keeps: it builds the
piece generators and curve words, solves a conjugator for every side loop,
and _audit checks that folded subgroup ranks match the piece genera, that
boundary and mark loops fold into their piece subgroups, and that the
homology classes of the curve words reproduce the bridge/cut classification
of the dual graph.

The catalog also owns sub-multicurves.  delete_curves synthesizes the
representative left after removing curves directly: pieces on either side
of a removed curve merge, the merged subgroup is generated by the
constituent piece subgroups together with one crossing loop per removed
curve, and the result passes the same _audit as every realized
representative.

The shipped range is 1 <= g <= 3, 0 <= n <= 2 (so the model never carries
interior marked points; the surface's punctures are the one or two boundary
lifts).  Types the diagram search cannot reach raise UnsupportedError.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import (InvalidInputError, LevelNerveError, UnsupportedError,
                     self_check)
from .stablegraph import (StableGraph, components, enumerate_stable_graphs,
                          max_rank)
from .surface import presentation
from .symplectic import check_ints, tree_walk
from .words import FoldedGraph, solve_conjugator, winv, wmul


class Piece(namedtuple("Piece", "genus marks gens chi_filled")):
    """A complementary piece of the multicurve.

    genus/marks describe the closed-up piece; gens generate the image of its
    fundamental group in the public free group (up to one conjugation);
    marks pair each puncture index living on the piece with a based loop
    word around it."""

    __slots__ = ()


class Side(namedtuple("Side", "piece conj sign")):
    """One side of a curve: the piece it bounds, a conjugator w with
    w * curve^sign * w^-1 equal to the based boundary loop of the piece."""

    __slots__ = ()


class MulticurveRep:
    """A realized multicurve: dual graph, one cyclic word per edge, and the
    piece/side data needed to transport it through covers.  key is the
    canonical key of graph, which the caller has already computed."""

    def __init__(self, g, n, graph, words, pieces, sides, key):
        self.g = g
        self.n = n
        self.graph = graph
        self.words = tuple(words)
        self.pieces = tuple(pieces)
        self.sides = tuple(sides)
        self.key = key

    def rank(self):
        return len(self.words) - 1

    def __repr__(self):
        return (f"MulticurveRep(({self.g},{self.n}), "
                f"{len(self.words)} curves, {len(self.pieces)} pieces)")


# -- diagram combinatorics


def _objects(B):
    """All diagram objects on B collinear branch points, canonical order.
    Slits are ("arc", p, p+1); circles ("circ", i, j) need at least two
    branch points, and the 2-point circle is skipped (its lifts are parallel
    to the slit's, rejected later anyway)."""
    objs = []
    for i in range(1, B + 1):
        for j in range(i, B + 1):
            if i == j:
                continue
            if j == i + 1:
                objs.append(("arc", i, j))
                continue
            objs.append(("circ", i, j))
    objs.sort(key=lambda o: (o[1], o[2], o[0]))
    return objs


def _compatible(a, b):
    (ka, ia, ja), (kb, ib, jb) = a, b
    if (ia, ja) == (ib, jb):
        return False
    disjoint = ja < ib or jb < ia
    if disjoint:
        return True
    a_in_b = ib <= ia and ja <= jb
    b_in_a = ia <= ib and jb <= ja
    if ka == "arc" and kb == "arc":
        return False  # overlapping slits share a branch point
    if ka == "arc":
        return a_in_b
    if kb == "arc":
        return b_in_a
    return a_in_b or b_in_a


def _curve_count(obj):
    if obj[0] == "arc":
        return 1
    branch = obj[2] - obj[1] + 1
    return 1 if branch % 2 == 1 else 2


def _families(real):
    """(family, layout) for every laminar family with at most
    max_rank(g, n) + 1 = 3g-3+n lifted curves whose layout by real is a
    multicurve, the empty family first, then DFS order; no family below a
    rejected one is laid out.

    Rejection is monotone.  An object lifts the same way whatever else the
    family holds, so the lifted multicurve of F + {o} contains that of F
    and its pieces refine F's.  Euler characteristic is additive under
    cutting, so an unstable piece of F (chi = 2-2h-b-r >= 0) has a
    sub-piece with chi >= 0 in every extension, which is unstable too."""
    objs = _objects(real.B)
    max_curves = max_rank(real.g, real.n) + 1
    # (next object index, family, lifted curves), children pushed in reverse
    stack = [(0, (), 0)]
    while stack:
        start, family, curves = stack.pop()
        lay = real.layout(family)
        if lay is None:
            continue
        yield family, lay
        children = []
        for idx in range(start, len(objs)):
            o = objs[idx]
            c = curves + _curve_count(o)
            if c <= max_curves and all(_compatible(o, p) for p in family):
                children.append((idx + 1, family + (o,), c))
        stack.extend(reversed(children))


# -- realization


def _span(o):
    """The downstairs word of an object: its branch points in order."""
    return tuple(range(o[1], o[2] + 1))


def _odd(o):
    return (o[2] - o[1] + 1) % 2


class _Layout:
    """The combinatorial stage of a family: items per region (regions
    parents first), which regions lift connected, piece ids per (region,
    sheet), one (object, outer region, sheet, ends) entry per lifted
    curve, filled Euler characteristics of the pieces, raw dual graph
    (vertices, edges) and its canonical key."""

    def __init__(self, items, connected, piece_ids, edges, chis, raw, key):
        self.items = items
        self.connected = connected
        self.piece_ids = piece_ids
        self.edges = edges
        self.chis = chis
        self.raw = raw
        self.key = key


class _Realizer:
    def __init__(self, g, n):
        self.g = g
        self.n = n
        self.pres = presentation(g, n)
        self.B = self.pres.model.B
        self._public = {}
        # raw dual graph (vertices, edges) -> canonical key, once checked
        self._keys = {}

    def _std(self, down_word):
        """Downstairs word -> public letters, memoized: the families of
        one signature meet a few hundred words over and over."""
        w = self._public.get(down_word)
        if w is None:
            w = self._public[down_word] = self.pres.from_model(down_word)
        return w

    def layout(self, family):
        """Combinatorial stage: the _Layout of a laminar family in DFS
        order, or None when some piece is inessential or unstable (not a
        valid multicurve).  Builds no words; checks the piece bookkeeping,
        and once per distinct raw dual graph the assembled StableGraph and
        the Euler characteristic assembly, which depend on nothing else."""
        B, n = self.B, self.n
        # one sweep, outside in: in (start, -end) order every object and
        # free branch point lies in the innermost circle still open, and
        # every circle opens its region after its parents' (region order)
        consumed = {p for o in family if o[0] == "arc" for p in o[1:]}
        free = [("pos", p, p) for p in range(1, B + 1) if p not in consumed]
        items = {None: []}
        region = {}
        open_circles = [None]
        for o in sorted([*family, *free], key=lambda o: (o[1], -o[2])):
            while open_circles[-1] and open_circles[-1][2] < o[1]:
                open_circles.pop()
            region[o] = open_circles[-1]
            items[region[o]].append(o)
            if o[0] == "circ":
                items[o] = []
                open_circles.append(o)

        # a region's preimage is connected exactly when it has an odd item
        connected = {r: any(_odd(o) for o in its) for r, its in items.items()}

        # pieces per region with their open Euler characteristics: a
        # region is a disk less its items, and a connected one lifts as its
        # double cover branched at its free points
        piece_ids, chis = {}, []
        for r, its in items.items():
            chi_r = 1 - len(its)
            if connected[r]:
                piece_ids[(r, 0)] = piece_ids[(r, 1)] = len(chis)
                chis.append(2 * chi_r + sum(o[0] == "pos" for o in its))
            else:
                for eps in (0, 1):
                    piece_ids[(r, eps)] = len(chis)
                    chis.append(chi_r)
        n_pieces = len(chis)

        # lifted curves: a slit's lift joins the two sheets of its region;
        # an odd circle lifts to one curve with one collar on each side;
        # an even one to two, the eps-sheet outside facing the eps-sheet
        # inside
        edges = []
        boundary_count = [0] * n_pieces
        for o in family:
            r_out = region[o]
            if o[0] == "arc":
                lifts = [(None, (piece_ids[(r_out, 0)],
                                 piece_ids[(r_out, 1)]))]
            else:
                lifts = [(eps, (piece_ids[(r_out, eps)], piece_ids[(o, eps)]))
                         for eps in ((0,) if _odd(o) else (0, 1))]
            for eps, (u, v) in lifts:
                edges.append((o, r_out, eps, (u, v)))
                boundary_count[u] += 1
                boundary_count[v] += 1

        # boundary marks: the two lifts of the disk boundary sit on the
        # root pieces; u_1 is real for n >= 1, u_2 for n = 2, and a lift
        # that is not real is filled, which makes chis the filled ones
        marks = [() for _ in range(n_pieces)]
        for sigma in (0, 1):
            pid = piece_ids[(None, sigma)]
            if sigma < n:
                marks[pid] += (sigma + 1,)
            else:
                chis[pid] += 1

        vertices = []
        for pid in range(n_pieces):
            b, r_real = boundary_count[pid], len(marks[pid])
            h2 = 2 - chis[pid] - b - r_real
            if h2 < 0 or h2 % 2:
                raise LevelNerveError("piece bookkeeping is inconsistent")
            h = h2 // 2
            if 2 * h - 2 + b + r_real <= 0:
                return None  # inessential or parallel curve; not a multicurve
            vertices.append((h, marks[pid]))

        # tuples from lists: tuple() of a generator bypasses the tuple free
        # lists and leaves them filled, which raised the peak RSS
        raw = (tuple(vertices), tuple([e[3] for e in edges]))
        key = self._keys.get(raw)
        if key is None:
            graph = StableGraph(*raw)
            self_check(graph.genus() == self.g and graph.is_stable(),
                       "assembled dual graph")
            self_check(sum(chis) == 2 - 2 * self.g - n,
                       "Euler characteristic assembly")
            key = self._keys[raw] = graph.canonical_key()
        return _Layout(items, connected, piece_ids, tuple(edges),
                       tuple(chis), raw, key)

    def realize(self, lay):
        """Word stage: the MulticurveRep of a layout, keyed by its graph's
        canonical key, with its piece generators, curve words, mark loops
        and side conjugators, checked by _audit."""
        items, connected, piece_ids = lay.items, lay.connected, lay.piece_ids
        # access prefixes, outside in: an item is reached past the items
        # before it in its region, a region by its circle's own prefix
        prefix = {}
        for r, its in items.items():
            V = prefix.get(r, ())
            for o in its:
                prefix[o] = V
                V = V + _span(o)

        def based(o):
            pre = prefix[o]
            return wmul(pre, _span(o), winv(pre))

        def based_sq(o):
            pre = prefix[o]
            return wmul(pre, _span(o), _span(o), winv(pre))

        # Sheet access devices.  A split region's two pieces are based via
        # the silent x_1 prefix (applied uniformly, so any curve crossings
        # of that path conjugate the whole piece at once).  A connected
        # region reaches its second sheet through the lasso T of its first
        # odd item, a path inside the region, hence inside the piece.
        T_of = {}
        for r, its in items.items():
            if connected[r]:
                tstar = next(o for o in its if _odd(o))
                T_of[r] = (tstar, based(tstar))

        def side_loop(r, base, eps):
            if connected[r]:
                if eps == 0:
                    return base
                T = T_of[r][1]
                return wmul(T, base, winv(T))
            return wmul((1,) * eps, base, (1,) * eps)

        # subgroup generators per piece
        gens = [None] * len(lay.chis)
        for r, its in items.items():
            if connected[r]:
                pid = piece_ids[(r, 0)]
                tstar, gstar = T_of[r]
                gs = []
                for o in its:
                    if o is tstar:
                        continue
                    go = based(o)
                    if _odd(o):
                        gs.append(wmul(go, winv(gstar)))
                        gs.append(wmul(gstar, go))
                    else:
                        gs.append(go)
                        gs.append(wmul(gstar, go, winv(gstar)))
                gs.append(wmul(gstar, gstar))
                gens[pid] = [self._std(w) for w in gs]
            else:
                for eps in (0, 1):
                    pid = piece_ids[(r, eps)]
                    gens[pid] = [self._std(side_loop(r, based(o), eps))
                                 for o in its]

        # based loops around the real boundary marks
        marks = [[] for _ in lay.chis]
        down_all = tuple(range(1, self.B + 1))
        for sigma in range(self.n):
            loop = self._std(winv(side_loop(None, down_all, sigma)))
            marks[piece_ids[(None, sigma)]].append((sigma + 1, loop))
        pieces = [Piece(h, tuple(mk), tuple(gs), chi) for (h, _), mk, gs, chi
                  in zip(lay.raw[0], marks, gens, lay.chis)]

        # curve words; each side loop conjugates the curve or its inverse
        words, sides = [], []
        for o, r_out, eps, ends in lay.edges:
            if o[0] == "arc":
                word = self._std(_span(o))
                loops = [self._std(side_loop(r_out, based(o), e))
                         for e in (0, 1)]
            elif _odd(o):
                word = self._std(_span(o) + _span(o))
                loops = [self._std(based_sq(o))] * 2
            else:
                base_par = sum(1 for x in prefix[o] if x <= self.B) % 2
                delta = eps ^ base_par
                word = self._std(((1,) * delta) + _span(o) + ((1,) * delta))
                loops = [self._std(side_loop(r, based(o), eps))
                         for r in (r_out, o)]
            pair = []
            for pid, loop in zip(ends, loops):
                sign = 1
                c = solve_conjugator(word, loop)
                if c is None:
                    c = solve_conjugator(winv(word), loop)
                    sign = -1
                self_check(c is not None, "side loop is a curve conjugate")
                pair.append(Side(pid, c, sign))
            words.append(word)
            sides.append(tuple(pair))

        rep = MulticurveRep(self.g, self.n, StableGraph(*lay.raw), words,
                            pieces, sides, lay.key)
        _audit(rep)
        return rep


@lru_cache(maxsize=None)
def _closed_u1_loop(g):
    """The u_1 boundary loop of the closed genus-g model, public letters."""
    pres = presentation(g, 0)
    down_all = tuple(range(1, pres.model.B + 1))
    return pres.from_model(winv(down_all))


def _audit(rep):
    """Folded-subgroup and homology audit of a representative, realized or
    synthesized by curve deletion: piece subgroups have the free rank of
    the subsurface they name, mark and side loops fold into their pieces,
    and the curve classes reproduce the bridge/cut classification."""
    pres = presentation(rep.g, rep.n)
    N = pres.cover_rank()
    folded = [FoldedGraph(p.gens, N) for p in rep.pieces]
    # the u_1 boundary slot always sits on the first root piece; for a
    # closed surface it is filled but still punctures the public model
    u1_holder = None
    if rep.n == 0:
        u1_holder = 0
        self_check(folded[0].contains(_closed_u1_loop(rep.g)),
                   "u_1 slot on the root piece")
    ends = rep.graph.degrees()
    for pid, piece in enumerate(rep.pieces):
        r_pub = len(piece.marks) + (1 if pid == u1_holder else 0)
        want = 2 * piece.genus + ends[pid] + r_pub - 1
        self_check(folded[pid].rank() == want, "piece subgroup rank")
        for _, loop in piece.marks:
            self_check(folded[pid].contains(loop), "mark loop in piece")
    for word, sds in zip(rep.words, rep.sides):
        for s in sds:
            loop = wmul(s.conj, word if s.sign > 0 else winv(word),
                        winv(s.conj))
            self_check(folded[s.piece].contains(loop),
                       "boundary loop in piece")
    # homology classification must reproduce the graph classification
    bridges = set(rep.graph.bridges())
    classes = [pres.homology_class(w) for w in rep.words]
    for i, cls in enumerate(classes):
        zero = all(c == 0 for c in cls)
        self_check(zero == (i in bridges), "bridge homology classification")
    for i, j in rep.graph.minimal_two_cuts():
        plus = tuple(a + b for a, b in zip(classes[i], classes[j]))
        minus = tuple(a - b for a, b in zip(classes[i], classes[j]))
        self_check(all(c == 0 for c in plus) or all(c == 0 for c in minus),
                   "cut pair homology relation")


def _types(g, n):
    """Every stable-graph type of (g, n), the smooth one included.  The
    representatives carry their keys (StableGraph.from_key), which are
    read instead of computed again; one is checked against canonical_key
    per call."""
    types = enumerate_stable_graphs(g, n, include_empty=True)
    self_check(types[0].key == types[0].canonical_key(), "stored type key")
    return types


@lru_cache(maxsize=None)
def _catalog(g, n):
    if not (1 <= g <= 3 and 0 <= n <= 2):
        raise UnsupportedError(
            f"signature ({g}, {n}) outside the shipped catalog range")
    if 2 * g - 2 + n <= 0:
        raise UnsupportedError(f"({g}, {n}) admits no stable curves")
    real = _Realizer(g, n)
    want = {t.key for t in _types(g, n)}
    found = {}
    for _, lay in _families(real):
        if lay.key not in found:
            found[lay.key] = real.realize(lay)
            if want <= found.keys():
                break
    return found


def multicurve_catalog(g, n):
    """All realized representatives for (g, n), canonical order by type."""
    check_ints((g, n), "signature entry")
    cat = _catalog(g, n)
    return tuple(cat[k] for k in sorted(cat))


def catalog_coverage(g, n):
    """(realized, missing) stable-graph types for the signature."""
    check_ints((g, n), "signature entry")
    cat = _catalog(g, n)
    realized, missing = [], []
    for t in _types(g, n):
        (realized if t.key in cat else missing).append(t)
    return realized, missing


# -- sub-multicurves


def delete_curves(mc, drop):
    """The multicurve representative left after removing a set of curves.

    Pieces joined by a removed curve merge.  Each piece's stored words sit
    in their own frame (the subgroup is listed up to one conjugation), so
    the pieces of a merged component are first transported into the frame
    of its lowest-numbered piece along the breadth-first tree (tree_walk)
    of the removed curves: crossing the annulus of a removed curve with
    side conjugators w1, w2 composes the transport with w1 * w2^-1.  The
    honest crossing differs from that word by a power of the curve
    inserted in the middle, which is absorbed because the side boundary
    loop w1 * c^(+-1) * w1^-1 already lies in the subgroup.  The merged
    subgroup is then generated by the transported constituent generators
    plus one connector per non-tree removed curve; transported mark loops
    and side conjugators keep every carried word in the merged frame.
    Genus bookkeeping is Euler characteristic addition.  Indices must be
    ints; a bool, a float or a string is refused with InvalidInputError."""
    E = len(mc.words)
    drop = frozenset(check_ints(drop, "curve index"))
    if not drop:
        return mc
    if not drop <= set(range(E)):
        raise InvalidInputError("curve index out of range")
    if len(drop) == E:
        raise InvalidInputError("cannot delete every curve")
    keep = [e for e in range(E) if e not in drop]
    P = len(mc.pieces)

    # a removed curve joins its pieces both ways; crossing it from side s
    # to side t transports by s.conj * t.conj^-1
    ends, cross = [[] for _ in range(P)], [[] for _ in range(P)]
    for e in sorted(drop):
        for s, t in (mc.sides[e], mc.sides[e][::-1]):
            ends[s.piece].append(t.piece)
            cross[s.piece].append((wmul(s.conj, winv(t.conj)), e))
    # each piece's transport and the tree curve that reached it
    walk, _ = tree_walk(ends, ((), None), lambda xe, u, j: (
        wmul(xe[0], cross[u][j][0]), cross[u][j][1]))
    x, tree = zip(*walk)
    comps = components(P, [(mc.sides[e][0].piece, mc.sides[e][1].piece)
                           for e in drop])
    roots = len(comps)
    of = {p: c for c, comp in enumerate(comps) for p in comp}

    gens = [[] for _ in range(roots)]
    marks = [[] for _ in range(roots)]
    chi = [0] * roots
    for p, piece in enumerate(mc.pieces):
        c = of[p]
        gens[c].extend(wmul(x[p], g, winv(x[p])) for g in piece.gens)
        marks[c].extend((j, wmul(x[p], loop, winv(x[p])))
                        for (j, loop) in piece.marks)
        chi[c] += piece.chi_filled
    for e in sorted(drop):
        if e in tree:
            continue
        s0, s1 = mc.sides[e]
        self_check(of[s0.piece] == of[s1.piece],
                   "removed curve joins its sides")
        gens[of[s0.piece]].append(
            wmul(x[s0.piece], s0.conj, winv(s1.conj), winv(x[s1.piece])))

    ends = [0] * roots
    words = []
    sides = []
    edges = []
    for e in keep:
        words.append(mc.words[e])
        s0, s1 = mc.sides[e]
        sides.append((Side(of[s0.piece], wmul(x[s0.piece], s0.conj),
                           s0.sign),
                      Side(of[s1.piece], wmul(x[s1.piece], s1.conj),
                           s1.sign)))
        edges.append((of[s0.piece], of[s1.piece]))
        ends[of[s0.piece]] += 1
        ends[of[s1.piece]] += 1

    pieces = []
    for c in range(roots):
        mk = tuple(sorted(marks[c]))
        h2 = 2 - chi[c] - ends[c] - len(mk)
        self_check(h2 >= 0 and h2 % 2 == 0, "merged genus bookkeeping")
        pieces.append(Piece(h2 // 2, mk, tuple(gens[c]), chi[c]))

    verts = [(p.genus, tuple(j for j, _ in p.marks)) for p in pieces]
    graph = StableGraph(verts, edges)
    self_check(graph.genus() == mc.g and graph.is_stable(),
               "merged dual graph")
    sub = MulticurveRep(mc.g, mc.n, graph, words, pieces, tuple(sides),
                        graph.canonical_key())
    _audit(sub)
    return sub
