"""Finite simplicial sets of framed decompositions.

build_abelian_nerve assembles, for a base surface and a modulus, the
complex whose k-simplices are the equivalence classes of framed
decompositions of rank k+1, generated as transvection orbits of the
decompositions the catalog multicurves cut out.  build_image_complex does
the same upstairs for an invariant cover: simplices are deck-equivariant
decompositions of the cover, orbited under the lifted twist matrices, with
one simplex dimension per base curve.

Faces delete one curve surface-side.  The sub-multicurve representative is
synthesized directly: pieces on either side of a removed curve merge, the
merged subgroup is generated by the constituent piece subgroups together
with one crossing loop per removed curve, the result passes the catalog's
own audit, and it is pushed through the same induction that built the
seeds, so every face is validated by the same battery as every simplex.

pi1_report and homology read the edge-path group and the integral homology
off the face tables alone; cross_validate re-derives the complex by
independent means and reports mismatches instead of raising.
"""

from __future__ import annotations

import itertools

from . import covers
from .catalog import (MulticurveRep, Piece, Side, _audit, catalog_coverage,
                      multicurve_catalog)
from .decomp import (FramedDecomposition, canonical_form, canonical_serial,
                     induced_from_lift, induced_from_multicurve, sp_action,
                     validate)
from .errors import (InvalidInputError, LevelNerveError, ResourceLimitError,
                     UnsupportedError, ValidationError)
from .stablegraph import StableGraph, components
from .surface import twist_automorphisms
from .symplectic import (SympSpace, orbit_enumerate, smith_normal_form,
                         snf_diagonal, sp_group)
from .words import cyclic_reduce, winv, wmul


def _check(cond, msg):
    if not cond:
        raise LevelNerveError(f"complex assembly failed: {msg}")


# --------------------------------------------------------------------------
# curve deletion on multicurve representatives


def delete_curves(mc, drop):
    """The multicurve representative left after removing a set of curves.

    Pieces joined by a removed curve merge.  Each piece's stored words sit
    in their own frame (the subgroup is listed up to one conjugation), so
    the pieces of a merged component are first transported into the frame
    of its lowest-numbered piece along a spanning tree of the removed
    curves: crossing the annulus of a removed curve with side conjugators
    w1, w2 composes the transport with w1 * w2^-1.  The honest crossing
    differs from that word by a power of the curve inserted in the middle,
    which is absorbed because the side boundary loop w1 * c^(+-1) * w1^-1
    already lies in the subgroup.  The merged subgroup is then generated
    by the transported constituent generators plus one connector per
    non-tree removed curve; transported mark loops and side conjugators
    keep every carried word in the merged frame.  Genus bookkeeping is
    Euler characteristic addition."""
    E = len(mc.words)
    drop = frozenset(int(e) for e in drop)
    if not drop:
        return mc
    if not drop <= set(range(E)):
        raise InvalidInputError("curve index out of range")
    if len(drop) == E:
        raise InvalidInputError("cannot delete every curve")
    keep = [e for e in range(E) if e not in drop]
    P = len(mc.pieces)

    adj = [[] for _ in range(P)]
    for e in sorted(drop):
        s0, s1 = mc.sides[e]
        adj[s0.piece].append((e, s1.piece, s0.conj, s1.conj))
        adj[s1.piece].append((e, s0.piece, s1.conj, s0.conj))

    x = [None] * P
    of = [None] * P
    tree = set()
    roots = 0
    for p in range(P):
        if x[p] is not None:
            continue
        x[p] = ()
        of[p] = roots
        frontier = [p]
        while frontier:
            nxt = []
            for u in frontier:
                for (e, v, wu, wv) in adj[u]:
                    if x[v] is None:
                        x[v] = wmul(x[u], wu, winv(wv))
                        of[v] = roots
                        tree.add(e)
                        nxt.append(v)
            frontier = nxt
        roots += 1

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
        _check(of[s0.piece] == of[s1.piece], "removed curve joins its sides")
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
        _check(h2 >= 0 and h2 % 2 == 0, "merged genus bookkeeping")
        pieces.append(Piece(h2 // 2, mk, tuple(gens[c]), chi[c]))

    verts = [(p.genus, tuple(j for j, _ in p.marks)) for p in pieces]
    graph = StableGraph(verts, edges)
    _check(graph.genus() == mc.g and graph.is_stable(), "merged dual graph")
    sub = MulticurveRep(mc.g, mc.n, graph, words, pieces, tuple(sides),
                        graph.canonical_key())
    _audit(sub)
    return sub


# --------------------------------------------------------------------------
# the complex container


def _as_jsonable(x):
    if isinstance(x, bytes):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return [_as_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _as_jsonable(v) for k, v in x.items()}
    return x


def _as_key(x):
    if isinstance(x, list):
        return tuple(_as_key(v) for v in x)
    return x


class FinSimpSet:
    """Finite simplicial set given by sorted face tables.

    encodings[k][i] is the byte name of the i-th k-simplex; within a rank
    the encodings are strictly increasing, so an encoding determines its
    index.  faces[k][i] lists k+1 indices one rank down, the l-th omitting
    the l-th vertex in the fixed vertex order of the simplex.  provenance
    and decomps, when present, align with the tables: (type_key, matrix)
    pairs and the decomposition objects the simplices stand for.  Only
    complexes all of whose stored simplices are non-degenerate are
    supported; construction checks the shape, the simplicial identities
    and, when meta carries dim_bound, the bound on the top rank."""

    def __init__(self, encodings, faces, provenance=None, meta=None,
                 decomps=None):
        encodings = tuple(tuple(block) for block in encodings)
        faces = tuple(tuple(tuple(int(x) for x in row) for row in block)
                      for block in faces)
        if not encodings:
            raise InvalidInputError("a complex needs at least one rank")
        if len(faces) != len(encodings):
            raise InvalidInputError("face table rank count mismatch")
        for k, block in enumerate(encodings):
            if not block:
                raise InvalidInputError("empty rank block")
            if any(not isinstance(e, bytes) for e in block):
                raise InvalidInputError("encodings must be bytes")
            if any(block[i] >= block[i + 1] for i in range(len(block) - 1)):
                raise InvalidInputError(
                    "encodings must be strictly increasing within a rank")
            rows = faces[k]
            if len(rows) != len(block):
                raise InvalidInputError("face row count mismatch")
            for row in rows:
                if k == 0:
                    if row != ():
                        raise InvalidInputError("rank 0 simplices are faceless")
                    continue
                if len(row) != k + 1:
                    raise InvalidInputError("face row has the wrong arity")
                below = len(encodings[k - 1])
                if any(not (0 <= f < below) for f in row):
                    raise InvalidInputError("face index out of range")
        for k in range(2, len(encodings)):
            for s, row in enumerate(faces[k]):
                for i in range(k + 1):
                    for j in range(i + 1, k + 1):
                        left = faces[k - 1][row[j]][i]
                        right = faces[k - 1][row[i]][j - 1]
                        if left != right:
                            raise InvalidInputError(
                                f"simplicial identity fails at rank {k}, "
                                f"simplex {s}, pair ({i},{j})")
        if provenance is not None:
            provenance = tuple(tuple(block) for block in provenance)
            if tuple(len(b) for b in provenance) != \
                    tuple(len(b) for b in encodings):
                raise InvalidInputError("provenance shape mismatch")
        if decomps is not None:
            decomps = tuple(tuple(block) for block in decomps)
            if tuple(len(b) for b in decomps) != \
                    tuple(len(b) for b in encodings):
                raise InvalidInputError("decomposition shape mismatch")
        self.encodings = encodings
        self.faces = faces
        self.provenance = provenance
        self.decomps = decomps
        self.meta = dict(meta) if meta else {}
        # nonzero Smith divisors of the boundary into each rank, filled by
        # homology on first use; kept per instance, never keyed by value
        self._divisors = {}
        bound = self.meta.get("dim_bound")
        if bound is not None and self.top_rank > bound:
            raise InvalidInputError("complex exceeds its dimension bound")

    @property
    def top_rank(self):
        return len(self.encodings) - 1

    def size(self, k):
        if not (0 <= k <= self.top_rank):
            return 0
        return len(self.encodings[k])

    def components(self):
        """Vertex sets of the connected components, each sorted."""
        return components(self.size(0),
                          self.faces[1] if self.top_rank >= 1 else ())

    def to_data(self):
        ranks = []
        for k in range(len(self.encodings)):
            entry = {"simplices": [e.hex() for e in self.encodings[k]],
                     "faces": [list(row) for row in self.faces[k]]}
            if self.provenance is not None:
                entry["provenance"] = [
                    {"type": _as_jsonable(key), "transport": _as_jsonable(F)}
                    for (key, F) in self.provenance[k]]
            ranks.append(entry)
        return {"format": "finsimpset/1",
                "meta": _as_jsonable(self.meta),
                "ranks": ranks}

    @classmethod
    def from_data(cls, data):
        if not isinstance(data, dict) or data.get("format") != "finsimpset/1":
            raise InvalidInputError("not a serialized complex")
        encodings = []
        faces = []
        provenance = []
        has_prov = True
        try:
            for entry in data.get("ranks", ()):
                encodings.append(tuple(bytes.fromhex(e)
                                       for e in entry["simplices"]))
                faces.append(tuple(tuple(row) for row in entry["faces"]))
                if "provenance" in entry:
                    provenance.append(tuple(
                        (_as_key(p["type"]),
                         tuple(tuple(r) for r in p["transport"]))
                        for p in entry["provenance"]))
                else:
                    has_prov = False
            return cls(encodings, faces,
                       provenance=tuple(provenance) if has_prov else None,
                       meta=data.get("meta"))
        except LevelNerveError:
            raise
        except (KeyError, TypeError, ValueError, IndexError) as ex:
            raise InvalidInputError(f"malformed complex data: {ex}") from ex


# --------------------------------------------------------------------------
# orbit generation and assembly


class _TypeData:
    def __init__(self, mc, seed, shadow, face_shadows, vert_shadows):
        self.key = mc.key
        self.k = len(mc.words) - 1
        self.seed = seed
        self.shadow = shadow
        self.face_shadows = face_shadows
        self.vert_shadows = vert_shadows


def _orbit_types(space, types, gens, cap):
    """Per type, its orbit under gens and the transport of each element:
    the product of the generators along its breadth-first tree word.  The
    orbit is keyed by canonical_serial, so no element it reaches pays for
    the bytes of its canonical form; _assemble makes those for the stored
    elements alone.

    Within a type, canonical_serial runs once per distinct payload, the
    groups and frames an element carries: sp_action keeps the type's
    graph, marks and kind, so elements with equal payloads are equal
    values, and the interned groups make the payload cheap to hash."""
    per_type = []
    built = []
    for td in types:
        # canonical_serial, by payload.  A field that sp_action changes and
        # that enters canonical_serial must join this key.
        serials = {}

        def key(d):
            payload = (d.vertex_groups, d.edge_groups,
                       getattr(d, "frames", None))
            s = serials.get(payload)
            if s is None:
                s = serials[payload] = canonical_serial(d)
            return s

        try:
            res = orbit_enumerate(td.shadow, gens, sp_action, key=key,
                                  cap=cap)
        except ResourceLimitError as exc:
            done = ", ".join(f"{k}={c}" for k, c in built) or "none"
            raise ResourceLimitError(
                f"orbit cap while generating type {td.key}: {exc}; "
                f"completed orbits: {done}")
        transport = {(): space.identity_matrix()}
        for w in sorted(res.words, key=len):
            if w:
                transport[w] = space.mat_mul(transport[w[:-1]], gens[w[-1]])
        per_type.append((td, res, [transport[w] for w in res.words]))
        built.append((td.key, len(res.elements)))
    return per_type


def _assemble(per_type, meta, materialize):
    """The complex of the orbits in per_type.  Each simplex's vertices and
    faces are found by replaying its word, through the Schreier graph of
    rank 0 and of the rank below, from where its type's own vertex and face
    shadows sit; the vertex order sorts the vertices by encoding.  The
    orbits are keyed by canonical_serial; the encoding of each element,
    its canonical_form, is the repr of its key, made here once."""
    top = max(td.k for td, _, _ in per_type)
    records = [[] for _ in range(top + 1)]
    for td, res, transports in per_type:
        for i, key in enumerate(res.keys):
            records[td.k].append((repr(key).encode(), td, res, i,
                                  transports[i]))
    for k in range(top + 1):
        _check(records[k], f"no types populate rank {k}")
        records[k].sort(key=lambda r: r[0])
        for i in range(len(records[k]) - 1):
            _check(records[k][i][0] != records[k][i + 1][0],
                   "distinct orbits share a canonical form")

    index = [{r[0]: i for i, r in enumerate(block)} for block in records]
    # the rank-wide index of each orbit position, per type
    rank_of = {td.key: [None] * len(res.keys) for td, res, _ in per_type}
    for block in records:
        for i, (_, td, _, pos, _) in enumerate(block):
            rank_of[td.key][pos] = i
    # the Schreier graph of each rank below the top, in rank-wide indices
    moves = [[tuple(map(rank_of[td.key].__getitem__, res.moves[i]))
              for (_, td, res, i, _) in block]
             for block in records[:top]]

    def replay(s, graph, word):
        for j in word:
            s = graph[s][j]
        return s

    # where each type's vertex and face shadows sit; a face missing from
    # the rank below keeps its key as its name, since the action permutes
    # classes and so keeps it apart from every other face
    starts = {td.key: ([index[0].get(canonical_form(v))
                        for v in td.vert_shadows],
                       [index[td.k - 1].get(f, f) for f in
                        map(canonical_form, td.face_shadows)])
              for td, _, _ in per_type if td.k}
    encodings = []
    faces = []
    provenance = []
    decomps = []
    for k in range(top + 1):
        enc_row = []
        face_rows = []
        prov_row = []
        dec_row = []
        for (enc, td, res, i, F) in records[k]:
            enc_row.append(enc)
            prov_row.append((td.key, F))
            dec_row.append(materialize(td, res.elements[i], F))
            if k == 0:
                face_rows.append(())
                continue
            vert_starts, face_starts = starts[td.key]
            _check(None not in vert_starts,
                   f"vertex of a type {td.key} simplex is missing "
                   "from rank 0")
            word = res.words[i]
            verts = [replay(s, moves[0], word) for s in vert_starts]
            face_ids = [s if isinstance(s, bytes)
                        else replay(s, moves[k - 1], word)
                        for s in face_starts]
            order = sorted(range(k + 1), key=lambda j: verts[j])
            for a, b in zip(order, order[1:]):
                if verts[a] == verts[b] and face_ids[a] != face_ids[b]:
                    raise LevelNerveError(
                        "ambiguous vertex order: equal vertices with "
                        f"unequal opposite faces in type {td.key}")
            row = []
            for j in order:
                _check(not isinstance(face_ids[j], bytes),
                       f"face of a type {td.key} simplex is missing "
                       f"from rank {k - 1}")
                row.append(face_ids[j])
            face_rows.append(tuple(row))
        encodings.append(tuple(enc_row))
        faces.append(tuple(face_rows))
        provenance.append(tuple(prov_row))
        decomps.append(tuple(dec_row))

    meta = dict(meta)
    meta["counts"] = [len(b) for b in encodings]
    meta["types"] = {repr(td.key): {"rank": td.k, "count": len(res.elements)}
                     for td, res, _ in per_type}
    return FinSimpSet(encodings, faces, provenance=provenance, meta=meta,
                      decomps=decomps)


# --------------------------------------------------------------------------
# builders


def _require_full_catalog(g, n):
    """Refuse a signature whose catalog misses stable-graph types, naming
    them: a missing type of top rank is no face of another type, so it
    would be absent from the complex without any lookup failing."""
    _, missing = catalog_coverage(g, n)
    if missing:
        raise UnsupportedError(
            f"catalog at ({g}, {n}) misses {len(missing)} types: "
            + ", ".join(repr(t.canonical_key()) for t in missing))


def _types(g, n, induce, shadow):
    """One _TypeData per nonempty catalog multicurve: induce(mc) is its
    seed decomposition and shadow(d) the part the orbit acts on.  Face j
    deletes curve j; vertex j keeps curve j alone."""
    types = []
    for mc in multicurve_catalog(g, n):
        E = len(mc.words)
        if E == 0:
            continue
        seed = induce(mc)
        base = shadow(seed)
        if E == 1:
            face_shadows = (None,)
            vert_shadows = (base,)
        else:
            face_shadows = tuple(shadow(induce(delete_curves(mc, {j})))
                                 for j in range(E))
            vert_shadows = tuple(
                shadow(induce(delete_curves(mc, set(range(E)) - {j})))
                for j in range(E))
        types.append(_TypeData(mc, seed, base, face_shadows, vert_shadows))
    return types


def build_abelian_nerve(g, n, m, cap=200_000) -> FinSimpSet:
    """The base complex at modulus m, built type by type.

    Every catalog multicurve induces a seed decomposition; its transvection
    orbit fills the rank equal to the number of curves minus one.  The
    one-curve-deleted seeds are located once in the rank below, and each
    simplex finds its faces by replaying its orbit word from them through
    that rank's Schreier graph."""
    if m < 2:
        raise InvalidInputError("modulus must be at least 2")
    _require_full_catalog(g, n)
    space = SympSpace(g, m)
    types = _types(g, n,
                   lambda mc: induced_from_multicurve(g, n, m, mc, space),
                   lambda d: d)
    gens = sp_group(space)
    meta = {"builder": "abelian_nerve", "g": g, "n": n, "m": m,
            "dim_bound": 3 * g - 3 + n - 1}
    per_type = _orbit_types(space, types, gens, cap)
    return _assemble(per_type, meta, lambda td, x, F: x)


def build_image_complex(spec, m, cap=50_000) -> FinSimpSet:
    """The cover-side complex of an invariant cover at modulus m.

    Simplices are deck-equivariant decompositions of the cover, one
    dimension per base curve; they are orbited through their framed parts
    under the lifted twist matrices (the framed canonical form already
    identifies deck translates), and the full equivariant data is
    transported onto each stored simplex at assembly.  The twist matrices
    generate the relevant matrix group when the twists generate the whole
    mapping class group; the generated order is recorded in meta when it
    is small enough to enumerate."""
    if m < 2:
        raise InvalidInputError("modulus must be at least 2")
    _require_full_catalog(spec.g, spec.n)
    twists = twist_automorphisms(spec.g, spec.n)
    if not covers.invariance_check(spec, twists):
        raise ValidationError(
            "invariance", "cover is not invariant under the twist generators")
    hom = covers.cover_homology(spec, m)
    space = hom.space
    gens = []
    seen = set()
    for t in twists:
        M = covers.mcg_action_on_cover(spec, t, m)
        if M not in seen:
            seen.add(M)
            gens.append(M)
    types = _types(spec.g, spec.n, lambda mc: induced_from_lift(spec, mc, m),
                   lambda d: d.framed())
    order = None
    if space.g <= 2 and m == 2:
        try:
            order = len(space.sp_closure(gens, cap=10_000))
        except ResourceLimitError:
            order = None
    meta = {"builder": "image_complex", "g": spec.g, "n": spec.n, "m": m,
            "degree": spec.degree, "deck_order": len(spec.group.elements),
            "generators": len(gens), "matrix_group_order": order,
            "dim_bound": 3 * spec.g - 3 + spec.n - 1}
    per_type = _orbit_types(space, types, gens, cap)
    return _assemble(per_type, meta,
                     lambda td, x, F: sp_action(F, td.seed))


# --------------------------------------------------------------------------
# fundamental group of the 2-skeleton


def _tietze(ngen, rels, budget=200_000):
    """Bounded generator elimination.

    Letters are nonzero signed integers; generator i appears as +-(i+1).
    A generator occurring exactly once in some relation is solved for and
    substituted everywhere, smallest relation first, until nothing fires
    or the substitution budget is spent; the budget is charged the length
    of every rewritten relation, and nothing for a relation the
    substitution leaves alone.  Returns (alive generators, reduced
    relations, exhausted flag)."""
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
                # nothing to substitute; s is already cyclically reduced
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


def _finite_quotient(gens, rels, degree):
    """Exhaustive search for a nontrivial permutation quotient."""
    ops = covers.PermOps(degree)
    iden = ops.identity
    for images in itertools.product(itertools.permutations(range(degree)),
                                    repeat=len(gens)):
        if all(p == iden for p in images):
            continue
        table = {}
        for g, p in zip(gens, images):
            table[g] = p
            table[-g] = ops.inv(p)
        ok = True
        for r in rels:
            acc = iden
            for x in r:
                acc = ops.mul(acc, table[x])
            if acc != iden:
                ok = False
                break
        if ok:
            return images
    return None


class Pi1Report:
    """Edge-path group presentation with a certified verdict.

    verdict is "trivial" only when the presentation reduced to nothing,
    "nontrivial" only with a witness (a nonzero abelianization or an
    explicit finite quotient), and "unknown" otherwise.  For a
    disconnected complex the top level only aggregates and the per
    component reports are in components."""

    def __init__(self, generators, relations, verdict, witness,
                 abelian_divisors, components=()):
        self.generators = tuple(generators)
        self.relations = tuple(relations)
        self.verdict = verdict
        self.witness = witness
        self.abelian_divisors = tuple(abelian_divisors)
        self.components = tuple(components)

    def __repr__(self):
        return (f"Pi1Report({self.verdict}, {len(self.generators)} "
                f"generators, {len(self.relations)} relations)")


def _component_pi1(X, verts):
    vset = set(verts)
    root = verts[0]
    adj = {v: [] for v in verts}
    edges = []
    if X.top_rank >= 1:
        for i, row in enumerate(X.faces[1]):
            head, tail = row[0], row[1]
            if tail in vset:
                edges.append((i, tail, head))
                adj[tail].append((i, head))
                adj[head].append((i, tail))
    tree = set()
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for (e, w) in adj[v]:
                if w not in seen:
                    seen.add(w)
                    tree.add(e)
                    nxt.append(w)
        frontier = nxt
    _check(seen == vset, "component traversal")
    gen_of = {}
    for (e, _, _) in edges:
        if e not in tree:
            gen_of[e] = len(gen_of) + 1
    rels = []
    if X.top_rank >= 2:
        for row in X.faces[2]:
            if X.faces[1][row[2]][1] not in vset:
                continue
            word = []
            for e, sign in ((row[2], 1), (row[0], 1), (row[1], -1)):
                if e in gen_of:
                    word.append(sign * gen_of[e])
            rels.append(word)
    alive, rels, exhausted = _tietze(len(gen_of), rels)
    remap = {g: i + 1 for i, g in enumerate(alive)}
    rels = [[(1 if x > 0 else -1) * remap[abs(x)] for x in r] for r in rels]
    names = tuple(f"x{i + 1}" for i in range(len(alive)))

    def render(r):
        return "*".join(f"x{abs(x)}" if x > 0 else f"x{abs(x)}^-1"
                        for x in r)

    relations = tuple(render(r) for r in rels)
    if not alive:
        return Pi1Report((), (), "trivial", None, ())
    rows = [[0] * len(alive) for _ in rels]
    for i, r in enumerate(rels):
        for x in r:
            rows[i][abs(x) - 1] += 1 if x > 0 else -1
    divisors = [d for d in smith_normal_form(rows) if d]
    free = len(alive) - len(divisors)
    ab = tuple(sorted(d for d in divisors if d != 1)) + (0,) * free
    if ab:
        return Pi1Report(names, relations, "nontrivial",
                         ("abelianization", ab), ab)
    if not exhausted:
        budgets = [(per, deg) for per, deg in ((3, 4), (2, 5))
                   if len(alive) <= per]
        for _, deg in budgets:
            found = _finite_quotient(list(range(1, len(alive) + 1)),
                                     rels, deg)
            if found:
                return Pi1Report(names, relations, "nontrivial",
                                 ("finite_quotient", deg, found), ab)
    return Pi1Report(names, relations, "unknown", None, ab)


def pi1_report(X) -> Pi1Report:
    """Edge-path group of the 2-skeleton, with per component reports when
    the complex is disconnected."""
    comps = X.components()
    if len(comps) == 1:
        return _component_pi1(X, comps[0])
    subs = tuple(_component_pi1(X, c) for c in comps)
    if all(s.verdict == "trivial" for s in subs):
        verdict = "trivial"
    elif any(s.verdict == "nontrivial" for s in subs):
        verdict = "nontrivial"
    else:
        verdict = "unknown"
    return Pi1Report((), (), verdict, None, (), subs)


# --------------------------------------------------------------------------
# homology


def _boundary_matrix(X, k):
    rows = []
    for row in X.faces[k]:
        out = [0] * X.size(k - 1)
        for l, f in enumerate(row):
            out[f] += (-1) ** l
        rows.append(out)
    return rows


def _nonzero_divisors(X, k):
    """The nonzero Smith divisors of the boundary from rank k of X,
    computed once per complex: homology in degrees k - 1 and k both read
    them."""
    if k not in X._divisors:
        X._divisors[k] = tuple(d for d in snf_diagonal(_boundary_matrix(X, k))
                               if d)
    return X._divisors[k]


def homology(X, q):
    """Integral homology in degree q as a divisor tuple.

    Torsion divisors come first in ascending order, then one 0 per free
    factor; () is the zero group.  The chain complex is spanned by the
    stored simplices with the alternating face boundary."""
    if not (0 <= q <= X.top_rank):
        raise InvalidInputError("degree outside the stored ranks")
    n_q = X.size(q)
    if q == 0:
        rank_down = 0
    else:
        rank_down = len(_nonzero_divisors(X, q))
    if q + 1 <= X.top_rank:
        if q >= 1:
            # on the face rows: the faces of the faces of each simplex
            # cancel in pairs
            down = X.faces[q]
            for row in X.faces[q + 1]:
                img = {}
                for l, f in enumerate(row):
                    for t, ff in enumerate(down[f]):
                        img[ff] = img.get(ff, 0) + (-1) ** (l + t)
                _check(not any(img.values()), "boundary squares to zero")
        divisors = _nonzero_divisors(X, q + 1)
    else:
        divisors = []
    cycles = n_q - rank_down
    torsion = sorted(d for d in divisors if d != 1)
    free = cycles - len(divisors)
    _check(free >= 0, "homology rank bookkeeping")
    return tuple(torsion) + (0,) * free


# --------------------------------------------------------------------------
# cross validation


def _subgroup_elements(space, sub):
    steps = [[s * b for b in v] for v in sub.canonical_gens()
             for s in (1, -1)]
    res = orbit_enumerate(space.zero(), steps,
                          lambda v, x: space.reduce([a + b for a, b
                                                     in zip(x, v)]))
    return list(res.elements)


def _subgroups_between(space, lower, upper):
    """All subgroups H with lower <= H <= upper, by saturation walk."""
    def add(v, H):
        return H if H.contains(v) else H.add(space.subgroup([v]))

    res = orbit_enumerate(lower, _subgroup_elements(space, upper), add,
                          key=lambda H: H.key())
    return list(res.elements)


def _brute_type_sets(g, n, m):
    """Independent enumeration of all valid framed decompositions per
    catalog type, by exhausting frame vectors and vertex subgroups."""
    space = SympSpace(g, m)
    vectors = [list(v) for v in
               itertools.product(range(m), repeat=2 * g)]
    out = {}
    for mc in multicurve_catalog(g, n):
        E = len(mc.words)
        if E == 0:
            continue
        seed = induced_from_multicurve(g, n, m, mc, space)
        edges = seed.edges
        V = seed.V
        marks = seed.marks
        found = set()
        for frames in itertools.product(vectors, repeat=E):
            span = space.subgroup([list(f) for f in frames])
            if not span.is_isotropic():
                continue
            roof = span.perp()
            cands = []
            feasible = True
            for v in range(V):
                floor = space.subgroup(
                    [list(frames[e]) for e, (a, b) in enumerate(edges)
                     if a == v or b == v])
                if not all(roof.contains(list(x))
                           for x in floor.canonical_gens()):
                    feasible = False
                    break
                cands.append(_subgroups_between(space, floor, roof))
            if not feasible:
                continue
            egroups = [space.subgroup([list(f)]) for f in frames]
            for choice in itertools.product(*cands):
                d = FramedDecomposition(space, choice, egroups, edges,
                                        [list(f) for f in frames], marks, n)
                if not validate(d):
                    found.add(canonical_form(d))
        out[mc.key] = found
    return out


def cross_validate(X) -> dict:
    """Re-derive the complex by independent means and compare.

    Checks: every stored simplex's canonical form matches its table
    entry; every stored decomposition passes the validity battery; for
    the base complex of the closed genus 2 surface at modulus 2, an
    exhaustive enumeration of valid framed decompositions per type must
    reproduce each orbit exactly.  Mismatches are reported, not raised."""
    if X.decomps is None or X.provenance is None:
        raise InvalidInputError(
            "cross validation needs the built decompositions")
    checks = []
    offenders = []

    n_align = 0
    for k in range(X.top_rank + 1):
        for i, d in enumerate(X.decomps[k]):
            n_align += 1
            if canonical_form(d) != X.encodings[k][i]:
                offenders.append({"rank": k, "index": i,
                                  "check": "alignment"})
    checks.append({"name": "canonical alignment",
                   "ok": not any(o["check"] == "alignment"
                                 for o in offenders),
                   "count": n_align})

    n_valid = 0
    for k in range(X.top_rank + 1):
        for i, d in enumerate(X.decomps[k]):
            n_valid += 1
            viol = validate(d)
            if viol:
                offenders.append({"rank": k, "index": i,
                                  "check": "validity", "detail": viol})
    checks.append({"name": "stored decompositions valid",
                   "ok": not any(o["check"] == "validity"
                                 for o in offenders),
                   "count": n_valid})

    meta = X.meta
    brute_applicable = (
        meta.get("g") == 2 and meta.get("n") == 0 and meta.get("m") == 2
        and (meta.get("builder") == "abelian_nerve"
             or meta.get("degree") == 1))
    if brute_applicable:
        per_key = {}
        for k in range(X.top_rank + 1):
            for i, (key, _) in enumerate(X.provenance[k]):
                d = X.decomps[k][i]
                if d.kind == "equivariant":
                    d = d.framed()
                per_key.setdefault(key, set()).add(canonical_form(d))
        brute = _brute_type_sets(2, 0, 2)
        bad = []
        for key in sorted(brute):
            if brute[key] != per_key.get(key, set()):
                bad.append({"check": "brute", "type": repr(key),
                            "orbit": len(per_key.get(key, set())),
                            "exhaustive": len(brute[key])})
        offenders.extend(bad)
        checks.append({"name": "exhaustive enumeration matches orbits",
                       "ok": not bad,
                       "types": {repr(k): len(v) for k, v in
                                 sorted(brute.items())}})

    return {"ok": not offenders, "checks": checks, "offenders": offenders}
