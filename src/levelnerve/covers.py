"""Finite regular covers of a presented surface.

A cover of S_{g,n} is specified by images of the public letters in a finite
deck group G; the subgroup K is the kernel, presented through its coset
table, which is the Cayley graph of G since the cover is regular.  G is
enumerated once (DeckGroup), keeping that graph, the breadth-first word of
each element and the index of its inverse; every later reader, decomp's
action check included, walks those records, and no element is multiplied
again.  The module computes:

  * Euler characteristic / puncture bookkeeping of the cover (analyze_cover),
  * H_1 of the filled cover surface with its deck action (cover_homology),
    read for the generator images and composed along the Cayley graph,
  * preimages of catalog multicurves with the cut stable graph, the
    separating / cut-pair flags (lift_multicurve), and the deck
    permutations and piece-copy classes of a lift (lift_cut_graph), which
    decomp.induced_from_lift turns into groups,
  * the mod-ell derived cover K -> [K,K]K^ell (derived_cover), built from
    the action of the letters on cosets (sheet, class over Z/ell): a step
    adds the class row of the loop it crosses, and cosets are numbered in
    the shortlex order of their breadth-first words,
  * the matrix a twist induces on cover homology (mcg_action_on_cover),
    together with invariance_check.

Homology is computed from an explicit cell structure.  The once-punctured
base model is a one-vertex ribbon graph whose boundary cycles are exactly
the puncture words, so the rotation data lifts verbatim: faces of the
filled cover are the orbits of the dart successor map.  Contracting the
shortlex Schreier tree and merging all faces into a single polygon leaves
each surviving edge letter exactly once with each sign; those letters are
a free basis of H_1 of the closed cover surface.  The chord joining the
two occurrences of a letter is the loop dual to it, its crossing form is
read off from how occurrence pairs interleave, and the intersection form
of the letters themselves is minus the inverse of that crossing form.  An
integer basis change, inverted by its Hermite form, gives the symplectic frame.

A class is a linear function of the loop edges a word crosses: the
Reidemeister-Schreier rewrite of a word read from a sheet lists the signed
loop-edge ids it passes, and its class is the sum of one fixed row per
loop, read off a table built once per cover (each loop's survivor
coordinates after the face merges, times the inverse frame change).
Conjugating a word by the transversal word t_h of sheet h costs nothing:
t_h runs on tree edges only, which the rewrite leaves silent, and free
cancellation removes backtracks, whose ids cancel in the signed sum.  So
the class of t_h w t_h^-1 is that of w read from sheet h, over Z.

A cover keeps what its lifts share, for as long as the CoverSpec lives:
the coset table keeps the sheet orbits of each tuple of subgroup words
(next to its twist verdicts), the chain data keeps the end sheet and
class over Z of each word read from each sheet (its walks), and the
homology at each modulus keeps the class rows of each piece copy, by
piece generators and orbit.  Entries are exact functions of their keys
on the one cover, a call that raises keeps nothing, and every self-check
still runs on each distinct input.

Transversals, element orderings, merge order and basis extraction are all
deterministic, so every output is reproducible.

Permutations multiply by symplectic.perm_mul and perm_inv.  decomp and
complexes import this module only in induced_from_lift and
build_image_complex, so nerves, validation and pi_1 run without it.
"""

from collections import namedtuple
from operator import add, sub

from .errors import (LevelNerveError, InvalidInputError, InvalidCoverError,
                     ResourceLimitError, ValidationError, self_check)
from .words import wreduce, wmul, winv, wpow
from .surface import presentation
from .symplectic import (SympSpace, check_int, check_ints, check_modulus,
                         check_perm, checked_matrix, deck_matrices,
                         hnf_transform, mat_identity, orbit_enumerate,
                         perm_inv, perm_mul, tree_walk, vec_mat)
from .stablegraph import StableGraph, components

DEFAULT_MAX_DEGREE = 4096
# cap on degree * letters for the homology cell complex
DEFAULT_MAX_CHAIN = 1024


# --------------------------------------------------------------------------
# group backends


class PermOps:
    """Permutations of range(degree) as tuples; p*q applies p first."""

    kind = "perm"

    def __init__(self, degree: int):
        check_int(degree, "permutation degree")
        if degree < 1:
            raise InvalidInputError("permutation degree must be positive")
        self.degree = degree
        self.identity = tuple(range(degree))

    def validate(self, p):
        return check_perm(p, self.degree, "permutation")

    mul = staticmethod(perm_mul)
    inv = staticmethod(perm_inv)


class AbelianOps:
    """Tuples added componentwise modulo a fixed modulus vector."""

    kind = "abelian"

    def __init__(self, moduli):
        self.moduli = check_ints(moduli, "abelian modulus")
        if any(m < 2 for m in self.moduli):
            raise InvalidInputError("abelian moduli must be at least 2")
        self.identity = (0,) * len(self.moduli)

    def validate(self, v):
        v = check_ints(v, "abelian entry")
        if len(v) != len(self.moduli):
            raise InvalidInputError("vector length does not match moduli")
        return tuple(x % m for x, m in zip(v, self.moduli))

    def mul(self, u, v):
        return tuple((x + y) % m for x, y, m in zip(u, v, self.moduli))

    def inv(self, v):
        return tuple((-x) % m for x, m in zip(v, self.moduli))


class DeckGroup:
    """Closure of the generator images, kept as the Cayley graph that its
    one enumeration walks; no element is multiplied once it is built.

    Elements and the graph are numbered as orbit_enumerate discovers them,
    in the shortlex order (len(w), w) of their breadth-first words:

      * act[j][a] is the index of elements[a] * images[j], the right
        action of image j, and back[j] is its inverse permutation;
      * words[a] is the breadth-first word of elements[a] in the letters
        1..N of the images, so trace(0, words[a]) == a;
      * inverse[a] is the index of the inverse of elements[a], reached by
        walking the reversed word back through the inverse permutations.

    act[j][0] is the index of image j, so column act[j] lists the product
    of every element with it.  step and trace read signed letters off act
    and back; trace serves the words of callers (curves, conjugators,
    twist images), whose letters it checks but need not reduce."""

    def __init__(self, ops, images, max_size):
        self.ops = ops
        self.N = len(images)
        res = orbit_enumerate(ops.identity, images,
                              lambda s, e: ops.mul(e, s), cap=max_size)
        self.act = tuple(zip(*res.moves))
        self.elements = list(res.elements)
        self.d = len(self.elements)
        self.back = tuple(map(perm_inv, self.act))
        self.words = tuple(tuple(j + 1 for j in w) for w in res.words)
        self.inverse = tuple(self.trace(0, winv(w)) for w in self.words)

    @property
    def identity(self):
        return self.ops.identity

    def step(self, a, s):
        """Index of elements[a] times the image of the signed letter s."""
        return self.act[s - 1][a] if s > 0 else self.back[-s - 1][a]

    def trace(self, start, word):
        """Index reached from `start` along the signed letters of `word`,
        read unreduced: act[j] and back[j] are inverse permutations, so a
        cancelling pair of letters returns to where it started."""
        g = start
        for x in word:
            if type(x) is not int:
                check_int(x, "letter")
            if not 0 < abs(x) <= self.N:
                raise InvalidInputError(f"letter {x} outside cover alphabet")
            g = self.step(g, x)
        return g


# --------------------------------------------------------------------------
# cover specification


class CoverSpec:
    """Regular cover of S_{g,n} given by letter images in a deck group.

    For n = 0 the once-punctured model is used internally and the boundary
    word u_1 must map to the identity, so the cover of the closed surface
    is unramified.  The deck group is always the subgroup generated by the
    images; `proper_image` records whether a strictly larger group was
    declared.
    """

    def __init__(self, g: int, n: int, images, ops, declared_order=None):
        self.pres = presentation(g, n)
        self.g = g
        self.n = n
        N = self.pres.cover_rank()
        images = list(images)
        if len(images) != N:
            raise InvalidInputError(
                f"need {N} letter images for signature ({g},{n})")
        images = [ops.validate(x) for x in images]
        self.group = DeckGroup(ops, images, DEFAULT_MAX_DEGREE)
        self.images = tuple(images)
        self.declared_order = declared_order
        self.proper_image = (declared_order is not None
                             and declared_order != self.group.d)
        self._table = None
        self._chain = None
        self._homs = {}
        self._analysis = None
        if n == 0 and self.phi(self.pres.u1_word()) != ops.identity:
            raise InvalidCoverError(
                "boundary word of the closed base must map to the identity")

    @property
    def degree(self):
        return self.group.d

    @property
    def kind(self):
        return self.group.ops.kind

    def phi(self, word):
        return self.group.elements[self.group.trace(0, word)]

    def order_of(self, word):
        """Order of the image of `word` in the deck group."""
        trace = self.group.trace
        k, cur = 1, trace(0, word)
        while cur != 0:
            cur = trace(cur, word)
            k += 1
        return k


def identity_cover(g: int, n: int) -> CoverSpec:
    ops = PermOps(1)
    N = presentation(g, n).cover_rank()
    return CoverSpec(g, n, [ops.identity] * N, ops)


def abelian_cover(g: int, n: int, moduli, vectors,
                  declared_order=None) -> CoverSpec:
    ops = AbelianOps(moduli)
    return CoverSpec(g, n, vectors, ops, declared_order=declared_order)


def homology_cover(g: int, n: int, ell: int) -> CoverSpec:
    """Cover defined by killing mod-ell homology of the closed surface."""
    check_modulus(ell, "homology modulus", over_z=False)
    pres = presentation(g, n)
    vectors = []
    for j in range(1, pres.cover_rank() + 1):
        vectors.append(pres.homology_class((j,), ell))
    order = ell ** (2 * g)
    return abelian_cover(g, n, (ell,) * (2 * g), vectors,
                         declared_order=order)


def perm_cover(g: int, n: int, degree: int, perms,
               declared_order=None) -> CoverSpec:
    ops = PermOps(degree)
    return CoverSpec(g, n, perms, ops, declared_order=declared_order)


def cover_spec_to_data(spec: CoverSpec) -> dict:
    names = spec.pres.names
    images = {nm: list(img) for nm, img in zip(names, spec.images)}
    if spec.kind == "perm":
        group = {"kind": "perm", "degree": spec.group.ops.degree}
    else:
        group = {"kind": "abelian", "moduli": list(spec.group.ops.moduli)}
    if spec.declared_order is not None:
        group["order"] = spec.declared_order
    return {"base": {"g": spec.g, "n": spec.n},
            "group": group, "images": images}


def cover_spec_from_data(data: dict) -> CoverSpec:
    try:
        g = data["base"]["g"]
        n = data["base"]["n"]
        group = data["group"]
        kind = group["kind"]
        raw = data["images"]
        pres = presentation(g, n)
        missing = [nm for nm in pres.names if nm not in raw]
        if missing:
            raise InvalidInputError(f"missing letter images: {missing}")
        images = [raw[nm] for nm in pres.names]
        order = group.get("order")
        if order is not None:
            check_int(order, "declared order")
            if order < 1:
                raise InvalidInputError("declared order must be positive")
        if kind == "perm":
            spec = perm_cover(g, n, group["degree"], images,
                              declared_order=order)
        elif kind == "abelian":
            spec = abelian_cover(g, n, group["moduli"], images,
                                 declared_order=order)
        else:
            raise InvalidInputError(f"unknown group kind {kind!r}")
        # optional redundant u1 image doubles as a consistency check
        if "u1" in raw:
            claimed = spec.group.ops.validate(raw["u1"])
            if spec.phi(pres.u1_word()) != claimed:
                raise InvalidCoverError("declared u1 image is inconsistent")
        return spec
    except LevelNerveError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed cover data: {exc}") from exc


# --------------------------------------------------------------------------
# coset table, Schreier transversal and generators


class _Table:
    """Shortlex Schreier transversal of the cover subgroup over the deck
    group's Cayley graph, its loop edges and their words, and what the
    lifts of the cover keep per word (twist verdicts, sheet orbits)."""

    def __init__(self, spec: CoverSpec):
        group = self.group = spec.group
        d, N = group.d, group.N
        self.d, self.N = d, N
        # the breadth-first tree of the Cayley graph over the signed
        # alphabet x1 < x1^-1 < x2 < ... gives shortlex words
        letters = [s for j in range(1, N + 1) for s in (j, -j)]
        self.twords = tw = tree_walk(
            [[group.step(g, s) for s in letters] for g in range(d)], (),
            lambda w, g, i: w + (letters[i],))[0]
        self_check(all(tw[1:]), "coset graph is connected")
        # (g, j) is on the tree when one end's word extends the other's by it
        self.loop_edges = [(g, j) for g in range(d) for j in range(1, N + 1)
                           if tw[group.step(g, j)] != tw[g] + (j,)
                           and tw[g] != tw[group.step(g, j)] + (-j,)]
        # 1-based loop ids; tree edges have none
        self.loops = {e: i for i, e in enumerate(self.loop_edges, 1)}
        self.verdicts = {}  # twist sequence -> whether it preserves
        self.orbits = {}    # subgroup words -> their sheet orbits
        self.L = len(self.loop_edges)
        self_check(self.L == d * (N - 1) + 1, "Schreier rank")
        self.loop_words = [wmul(self.twords[gidx], (j,),
                                winv(self.twords[group.act[j - 1][gidx]]))
                           for gidx, j in self.loop_edges]

    def loop_id(self, g, s):
        """Signed 1-based id of the loop edge that the step from coset g
        along the signed letter s crosses, or 0 on a tree edge."""
        if s > 0:
            return self.loops.get((g, s), 0)
        return -self.loops.get((self.group.step(g, s), -s), 0)

    def rewrite(self, start, word):
        """Trace `word`, emitting signed loop-edge ids; tree edges are
        silent.  Returns (end coset, tuple of signed ids, 1-based)."""
        g = start
        step = self.group.step
        out = []
        for x in wreduce(word):
            if not (1 <= abs(x) <= self.N):
                raise InvalidInputError(f"letter {x} outside cover alphabet")
            lid = self.loop_id(g, x)
            if lid:
                out.append(lid)
            g = step(g, x)
        return g, tuple(out)


def _table(spec: CoverSpec) -> _Table:
    if spec._table is None:
        spec._table = _Table(spec)
    return spec._table


# --------------------------------------------------------------------------
# Euler characteristic bookkeeping


class CoverAnalysis(namedtuple(
        "CoverAnalysis", "degree n_K g_K chi_open chi_closed punctures")):
    # punctures: per base puncture, (component count, ramification)
    __slots__ = ()


def analyze_cover(spec: CoverSpec) -> CoverAnalysis:
    if spec._analysis is not None:
        return spec._analysis
    d = spec.degree
    g, n = spec.g, spec.n
    punctures = []
    for j in range(1, n + 1):
        r = spec.order_of(spec.pres.puncture_word(j))
        self_check(d % r == 0, "ramification divides the degree")
        punctures.append((d // r, r))
    n_K = sum(c for c, _ in punctures)
    if n >= 1:
        chi_open = d * (2 - 2 * g - n)
        chi_closed = chi_open + n_K
    else:
        chi_closed = d * (2 - 2 * g)
        chi_open = chi_closed
    self_check(chi_closed % 2 == 0, "closed cover characteristic is even")
    g_K = (2 - chi_closed) // 2
    self_check(g_K >= 0, "cover genus nonnegative")
    spec._analysis = CoverAnalysis(d, n_K, g_K, chi_open, chi_closed,
                                   tuple(punctures))
    return spec._analysis


# --------------------------------------------------------------------------
# cell structure of the filled cover and its homology


def _base_rotation(pres):
    """Successor map on signed letters whose cycles are the puncture words
    of the once-punctured model; this encodes the ribbon structure of the
    base bouquet."""
    words = [wreduce(w) for w in pres.cover_puncture_words()]
    rho = {}
    owner = {}
    for fidx, w in enumerate(words):
        self_check(len(w) > 0, "empty boundary word")
        for k, s in enumerate(w):
            self_check(s not in rho, "each edge side on exactly one boundary")
            rho[s] = w[(k + 1) % len(w)]
            owner[s] = fidx
    N = pres.cover_rank()
    self_check(len(rho) == 2 * N, "boundary words cover every edge side")
    return rho, owner, words


class _ChainData:
    """Polygon model of the filled cover: free homology basis, intersection
    form, symplectic frame and coordinates for arbitrary subgroup words."""

    def __init__(self, spec: CoverSpec):
        pres = spec.pres
        t = _table(spec)
        d, N, L = t.d, t.N, t.L
        step = spec.group.step
        rho, owner, base_words = _base_rotation(pres)

        # faces of the cover = orbits of the lifted successor map on darts
        signed = [s for j in range(1, N + 1) for s in (j, -j)]
        pos = {s: i for i, s in enumerate(signed)}
        seen = [False] * (d * 2 * N)
        faces = []
        self.peripheral = []
        for g0 in range(d):
            for s0 in signed:
                if seen[g0 * 2 * N + pos[s0]]:
                    continue
                darts = []
                g, s = g0, s0
                while not seen[g * 2 * N + pos[s]]:
                    seen[g * 2 * N + pos[s]] = True
                    darts.append((g, s))
                    g, s = step(g, s), rho[s]
                self_check((g, s) == (g0, s0), "dart successor closes up")
                faces.append([lid for lid in (t.loop_id(gg, ss)
                                              for gg, ss in darts) if lid])
                fidx = owner[s0]
                blen = len(base_words[fidx])
                self_check(len(darts) % blen == 0, "face length is a multiple")
                base_pk = fidx + 1 if pres.n >= 1 else 0
                rep = min(gg for gg, _ in darts)
                self.peripheral.append((base_pk, rep, len(darts) // blen))

        counts = {}
        for w in faces:
            for s in w:
                counts[s] = counts.get(s, 0) + 1
        self_check(all(counts.get(i + 1, 0) == 1 and counts.get(-i - 1, 0) == 1
                   for i in range(L)), "each loop letter once with each sign")

        # merge all faces into a single polygon, recording how each
        # eliminated letter is expressed in the surviving ones
        records = []
        while len(faces) > 1:
            where = {}
            for fi, w in enumerate(faces):
                for s in w:
                    where.setdefault(abs(s), {})[1 if s > 0 else -1] = fi
            x = None
            for i in sorted(where):
                if where[i][1] != where[i][-1]:
                    x = i
                    break
            self_check(x is not None, "face complex is connected")
            fa, fb = where[x][1], where[x][-1]
            A, B = faces[fa], faces[fb]
            A = A[A.index(x):] + A[:A.index(x)]
            B = B[B.index(-x):] + B[:B.index(-x)]
            rec = [0] * (L + 1)
            for s in A[1:]:
                rec[abs(s)] -= 1 if s > 0 else -1
            records.append((x, rec))
            merged = A[1:] + B[1:]
            faces = [w for fi, w in enumerate(faces) if fi not in (fa, fb)]
            faces.append(merged)
        self.polygon = tuple(faces[0]) if faces else ()

        occ = {}
        for p, s in enumerate(self.polygon):
            occ.setdefault(abs(s), [None, None])[0 if s > 0 else 1] = p
        self.survivors = sorted(occ)
        self_check(all(a is not None and b is not None
                   for a, b in occ.values()), "polygon letters are paired")
        S = len(self.survivors)
        self.g_K = S // 2
        self_check(S == 2 * self.g_K, "even rank")
        ana = analyze_cover(spec)
        self_check(self.g_K == ana.g_K, "polygon rank matches Hurwitz count")
        if pres.n >= 1:
            self_check(len(self.peripheral) == ana.n_K,
                       "face count matches puncture count")
        else:
            self_check(len(self.peripheral) == d,
                       "closed base: one filled disk per sheet")

        # intersection numbers from interleaving of occurrence pairs
        Lp = len(self.polygon)

        def pairing(x, y):
            px, mx = occ[x]
            span = (mx - px) % Lp

            def inside(q):
                return 0 < (q - px) % Lp < span

            qy, my = occ[y]
            return (1 if inside(my) else 0) - (1 if inside(qy) else 0)

        chord = [[pairing(self.survivors[i], self.survivors[j])
                  for j in range(S)] for i in range(S)]
        self_check(all(chord[i][i] == 0 for i in range(S)) and
                   all(chord[i][j] == -chord[j][i]
                   for i in range(S) for j in range(S)),
                   "chord form is alternating")
        # the chord through the two occurrences of letter x is the loop
        # dual to x, so the edge-class form is minus the inverse
        P = [[-x for x in row] for row in _unimodular_inverse(chord)]
        U, V = _symplectic_rows(P)
        self.Uinv = V
        self.t = t
        # survivor coordinates of every loop letter, by loop id (row 0 is
        # the unused zero row): a merged letter is the combination its
        # record gives of letters merged later or surviving, so the records
        # are solved from the last one back
        rows = [(0,) * S] + [None] * L
        for i, sid in enumerate(self.survivors):
            rows[sid] = tuple(int(i == j) for j in range(S))
        for x, rec in reversed(records):
            rows[x] = vec_mat(rec, rows)
        self.survivor_rows = rows
        self.class_rows = [vec_mat(row, V) if S else () for row in rows]
        self.walks = {}  # (sheet, word) -> (end sheet, class over Z)
        # word representatives of the symplectic basis classes
        self.basis_words = []
        for row in U:
            parts = []
            for c, sid in zip(row, self.survivors):
                if c:
                    parts.append(wpow(t.loop_words[sid - 1], c))
            self.basis_words.append(wmul(*parts) if parts else ())

    # -- coordinates

    def walk(self, sheet, word):
        """(end sheet, class over Z) of `word` read from `sheet`, the signed
        sum of the class rows of the loops it crosses, kept in `walks` for
        the life of the cover; a word the rewrite refuses is not kept."""
        key = (sheet, word)
        out = self.walks.get(key)
        if out is None:
            end, ids = self.t.rewrite(sheet, word)
            out = self.walks[key] = (end, _signed_sum(self.class_rows, ids))
        return out

    def closed_class(self, sheet, word):
        """Class over Z, in the symplectic frame of the closed cover, of
        t_h word t_h^-1 for h = sheet, through walk; that `word` closes up
        at `sheet` is checked on every call, hits included."""
        end, cls = self.walk(sheet, word)
        self_check(end == sheet, "word must lie in the cover subgroup")
        return cls


def _signed_sum(rows, ids):
    """The sum of rows[i] over the signed ids i of a rewrite, with a
    minus sign on a negative id; rows[0] is a zero row of the width."""
    out = rows[0]
    for i in ids:
        out = (tuple(map(add, out, rows[i])) if i > 0
               else tuple(map(sub, out, rows[-i])))
    return out


def _unimodular_inverse(P):
    """Exact inverse of a unimodular integer matrix: the Hermite form of P
    is the identity, and its transform is P^-1."""
    pairs = hnf_transform(P)
    self_check([h for h, _ in pairs] == mat_identity(len(P)),
               "matrix is unimodular")
    return [t for _, t in pairs]


def _symplectic_rows(P):
    """Integer basis change U taking the alternating unimodular Gram matrix
    P to the interleaved standard form, with its inverse."""
    S = len(P)
    U = mat_identity(S)
    Q = [row[:] for row in P]

    def rowadd(i, j, q):
        # v_i += q * v_j
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]
        Q[i] = [a + q * b for a, b in zip(Q[i], Q[j])]
        for r in range(S):
            Q[r][i] += q * Q[r][j]

    def rowswap(i, j):
        U[i], U[j] = U[j], U[i]
        Q[i], Q[j] = Q[j], Q[i]
        for r in range(S):
            Q[r][i], Q[r][j] = Q[r][j], Q[r][i]

    for block in range(0, S, 2):
        guard = 0
        while True:
            guard += 1
            self_check(guard < 10000, "symplectic reduction terminates")
            best = None
            for i in range(block, S):
                for j in range(i + 1, S):
                    if Q[i][j] and (best is None
                                    or abs(Q[i][j]) < abs(Q[best[0]][best[1]])):
                        best = (i, j)
            self_check(best is not None, "form stays nondegenerate")
            bi, bj = best
            p = Q[bi][bj]
            if abs(p) == 1:
                break
            for r in range(block, S):
                if r != bi and r != bj and Q[r][bj] % p:
                    rowadd(r, bi, -(Q[r][bj] // p))
                    break
                if r != bi and r != bj and Q[r][bi] % p:
                    rowadd(r, bj, -(Q[r][bi] // Q[bj][bi]))
                    break
            else:
                # p would divide all of row bi of the unimodular form left,
                # hence its Pfaffian (each term has one entry of row bi)
                self_check(False, "gcd step makes progress")
        if bi != block:
            rowswap(block, bi)
        if bj != block + 1:
            rowswap(block + 1, bj)
        if Q[block][block + 1] == -1:
            rowswap(block, block + 1)
        for r in range(block + 2, S):
            alpha = Q[r][block + 1]
            beta = Q[r][block]
            if alpha:
                rowadd(r, block, -alpha)
            if beta:
                rowadd(r, block + 1, beta)
    J = SympSpace(S // 2, 0).J if S else []
    self_check(Q == [list(r) for r in J], "reduced form is standard")
    return U, _unimodular_inverse(U)


def _chain(spec: CoverSpec) -> _ChainData:
    if spec._chain is None:
        t = _table(spec)
        if t.d * t.N > DEFAULT_MAX_CHAIN:
            raise ResourceLimitError(
                "cover homology beyond the configured degree * rank limit")
        spec._chain = _ChainData(spec)
    return spec._chain


class DeckHomology:
    """H_1 of the filled cover over Z/m with the deck group action.

    matrices[k] is the matrix of the deck element with index k.  They act
    on row vectors and compose covariantly: matrices[a] . matrices[b] is
    the matrix of elements[a] * elements[b].  So only each generator image
    s = act[j][0] is read, from the sheet of s^-1, and checked symplectic;
    deck_matrices forms the others along the Cayley graph, and a None
    from it means that they do not compose as the group."""

    def __init__(self, spec, m):
        chain = _chain(spec)
        group = spec.group
        self.m = m
        self.g_K = chain.g_K
        self.rank = 2 * chain.g_K
        self.space = space = SympSpace(chain.g_K, m)
        self.peripheral = tuple(chain.peripheral)
        self._chain = chain
        self._copies = {}  # (piece generators, orbit) -> copy class rows

        def read(sheet):
            return tuple(space.reduce(chain.closed_class(sheet, rep))
                         for rep in chain.basis_words)

        cols = {col[0]: col for col in group.act}  # one per image
        gens = tuple(read(group.inverse[s]) for s in cols)
        self_check(all(checked_matrix(chain.g_K, m, M).inverse is not None
                       for M in gens), "deck matrix is symplectic")
        iden = space.identity_matrix()
        self_check(read(0) == iden, "identity element acts trivially")
        self.matrices = deck_matrices(chain.g_K, m, gens, tuple(cols.values()))
        self_check(self.matrices is not None,
                   "deck matrices compose as the group")
        self.faithful = all(M != iden for M in self.matrices[1:])

    def class_of(self, word):
        """Class of a subgroup word in H_1 of the filled cover."""
        return self.space.reduce(self._chain.closed_class(0, tuple(word)))


def cover_homology(spec: CoverSpec, m: int) -> DeckHomology:
    # before the lookup: 2.0 == 2 would find the homology kept for m = 2
    check_modulus(m)
    if m not in spec._homs:
        spec._homs[m] = DeckHomology(spec, m)
    return spec._homs[m]


# --------------------------------------------------------------------------
# lifting multicurves


class LiftedCurve(namedtuple(
        "LiftedCurve", "index component_count cycle_length classes")):
    # classes: one homology class per component, by smallest sheet
    __slots__ = ()


class LiftResult(namedtuple(
        "LiftResult", "curves sigma has_separating_component has_cut_pair "
        "degree g_K")):
    __slots__ = ()


class CutGraph(namedtuple(
        "CutGraph", "degree g_K n_K vert_piece vert_orbit vert_marks "
        "vert_classes edge_ends edge_class vperms eperms curves sigma")):
    """Full record of the cut graph of a lifted multicurve.

    Vertices are copies of the complementary pieces (piece index plus the
    sheet orbit of its subgroup), edges are the curve components, and every
    edge carries its homology class in the filled cover.  vert_classes[v]
    holds the class rows of the homology of piece copy v, reduced mod m,
    nonzero and pairwise distinct (see _piece_copy_classes).  vperms[h] and
    eperms[h] are the deck action on vertices and edges: the element with
    index h sends the copy through sheet s to the copy through h^-1 s."""

    __slots__ = ()


def _subgroup_orbits(table, words):
    """Orbits of right translation by the subgroup the words generate, as
    sorted tuples of sheet indices ordered by least sheet, kept on the
    table per tuple of words."""
    key = tuple(map(tuple, words))
    if key not in table.orbits:
        trace = table.group.trace
        table.orbits[key] = components(
            table.d, [(g, trace(g, w)) for w in key for g in range(table.d)])
    return table.orbits[key]


def _piece_copy_classes(space, chain, gens, orbit):
    """Class rows spanning the image of the homology of one piece copy,
    the copy of the piece with generator words `gens` through the sheets
    of `orbit`: classes of the Schreier generators of the stabilizer of its
    least sheet, read from that sheet, reduced mod m, nonzero and pairwise
    distinct.  The piece generators permute finitely many sheets, so they
    reach the whole orbit without their inverses.

    Each orbit edge (x, j) walks gens[j] from sheet x (chain.walk, kept per
    cover, so pieces that share a generator share its walks); its class,
    the signed sum of class rows over the loop ids it crosses, is that of
    gens[j] closed up by the transversal words t_y^-1 t_x back to x, where
    y is the sheet it reaches, since those run on tree edges only, and
    free cancellation removes +-id pairs.  The potential of an orbit
    element is the sum of edge classes along its breadth-first tree
    (tree_walk), and each other edge (x, j, y) gives the Schreier
    generator of class pot[x] + edge(x, j) - pot[y]."""
    root = orbit[0]
    walked = {}

    def act(j, h):
        end, walked[h, j] = chain.walk(h, gens[j])
        return end

    res = orbit_enumerate(root, range(len(gens)), act, cap=chain.t.d)
    self_check(set(res.elements) == set(orbit), "piece copy orbit transversal")
    edge = [[walked[h, j] for j in range(len(gens))] for h in res.elements]
    pot, other = tree_walk(res.moves, chain.class_rows[0],
                           lambda cls, x, j: tuple(map(add, cls, edge[x][j])))
    # a row that is zero mod m or repeats another adds nothing to the span
    rows = dict.fromkeys(space.reduce(tuple(
        map(sub, map(add, pot[x], edge[x][j]), pot[y])))
        for x, j, y in other)
    return tuple(r for r in rows if any(r))


def lift_cut_graph(spec: CoverSpec, mc, m: int) -> CutGraph:
    """The cut graph of the preimage of `mc` in the cover, with the class
    of each curve component and of each piece copy mod m and the deck
    permutations of both.  Curve classes go through the cover's walk memo
    (chain.closed_class, whose closing check runs on hits too), sheet
    orbits through the table's and piece-copy classes through the
    homology's, so the lifts of one cover read each shared word once."""
    if (mc.g, mc.n) != (spec.g, spec.n):
        raise InvalidInputError("multicurve signature does not match cover")
    t = _table(spec)
    group = spec.group
    for w in mc.words:
        for x in wreduce(w):
            if not (1 <= abs(x) <= t.N):
                raise InvalidInputError("curve word outside cover alphabet")
    hom = cover_homology(spec, m)
    chain = hom._chain
    ana = analyze_cover(spec)
    d = spec.degree

    curves = []
    edge_of = {}       # (curve, sheet) -> id of the component through it
    edge_copies = []   # per component: (curve, least sheet of its cycle)
    edge_ends = []
    edge_class = []
    for e, w in enumerate(mc.words):
        c = spec.order_of(w)
        cycles = _subgroup_orbits(t, [w])
        self_check(all(len(cy) == c for cy in cycles), "free orbits of a lift")
        self_check(len(cycles) * c == d,
                   "component count times length is degree")
        classes = []
        for cy in cycles:
            for g in cy:
                edge_of[(e, g)] = len(edge_ends)
            edge_copies.append((e, cy[0]))
            edge_ends.append([])
            cls = hom.space.reduce(chain.closed_class(cy[0], wpow(w, c)))
            classes.append(cls)
            edge_class.append(cls)
        curves.append(LiftedCurve(e, len(cycles), c, tuple(classes)))

    # vertices of the cut graph: orbits of the complementary piece subgroups
    vert_order = []
    vert_of = {}       # (piece, sheet) -> id of the copy through it
    for pi, piece in enumerate(mc.pieces):
        for orb in _subgroup_orbits(t, piece.gens):
            for g in orb:
                vert_of[(pi, g)] = len(vert_order)
            vert_order.append((pi, orb))

    # boundary circles attach piece copies to curve copies
    for e, w in enumerate(mc.words):
        for side in mc.sides[e]:
            loop = wmul(side.conj, wpow(w, side.sign), winv(side.conj))
            for cy in _subgroup_orbits(t, [loop]):
                g = cy[0]
                v = vert_of[(side.piece, g)]
                edge_ends[edge_of[(e, group.trace(g, side.conj))]].append(v)
    self_check(all(len(ends) == 2 for ends in edge_ends),
               "every lifted curve bounds exactly two circles")

    # punctures of the cover, labelled by (base puncture, smallest sheet)
    mark_records = []
    for pi, piece in enumerate(mc.pieces):
        for (j, loop) in piece.marks:
            for cy in _subgroup_orbits(t, [loop]):
                mark_records.append((j, cy[0], vert_of[(pi, cy[0])]))
    mark_records.sort()
    self_check(len(mark_records) == ana.n_K,
               "lift accounts for every puncture")
    vert_marks = [[] for _ in vert_order]
    for label, (_, _, v) in enumerate(mark_records, start=1):
        vert_marks[v].append(label)

    vert_degree = [0] * len(vert_order)
    for ends in edge_ends:
        for v in ends:
            vert_degree[v] += 1

    vertices = []
    for vi, (pi, orb) in enumerate(vert_order):
        piece = mc.pieces[pi]
        chi_open = len(orb) * piece.chi_filled
        total = vert_degree[vi] + len(vert_marks[vi])
        self_check((2 - chi_open - total) % 2 == 0, "copy genus is integral")
        h = (2 - chi_open - total) // 2
        self_check(h >= 0, "copy genus is nonnegative")
        vertices.append((h, tuple(vert_marks[vi])))
    edges = [tuple(ends) for ends in edge_ends]
    sigma = StableGraph(vertices, edges)
    self_check(sigma.genus() == ana.g_K, "cut graph genus matches the cover")
    self_check(sigma.is_stable(), "cut graph is stable")
    self_check(sigma.marks() == tuple(range(1, ana.n_K + 1)),
               "cut graph marks enumerate the cover punctures")

    # kept on the homology per (piece generators, orbit): the lifts of one
    # cover share most of their pieces
    keys = [(tuple(map(tuple, mc.pieces[pi].gens)), orb)
            for pi, orb in vert_order]
    for key in keys:
        if key not in hom._copies:
            hom._copies[key] = _piece_copy_classes(hom.space, chain, *key)
    vert_classes = tuple(hom._copies[key] for key in keys)
    # the deck element h moves the copy through sheet s to the one through
    # h^-1 s, so every copy is looked up by the image of its least sheet:
    # column[s][h] = h^-1 s, the inverses moved along the word of s by act
    column = {}
    for s in {orb[0] for _, orb in vert_order} | {g for _, g in edge_copies}:
        column[s] = group.inverse
        for j in group.words[s]:
            column[s] = tuple(map(group.act[j - 1].__getitem__, column[s]))
    vperms = tuple(tuple(vert_of[(pi, column[orb[0]][h])]
                         for pi, orb in vert_order) for h in range(d))
    eperms = tuple(tuple(edge_of[(e, column[g][h])] for e, g in edge_copies)
                   for h in range(d))
    return CutGraph(d, ana.g_K, ana.n_K,
                    tuple(pi for pi, _ in vert_order),
                    tuple(orb for _, orb in vert_order),
                    tuple(mk for _, mk in vertices), vert_classes,
                    tuple(edges), tuple(edge_class), vperms, eperms,
                    tuple(curves), sigma)


def lift_multicurve(spec: CoverSpec, mc, m: int) -> LiftResult:
    cg = lift_cut_graph(spec, mc, m)
    return LiftResult(cg.curves, cg.sigma,
                      bool(cg.sigma.bridges()),
                      bool(cg.sigma.minimal_two_cuts()),
                      cg.degree, cg.g_K)


# --------------------------------------------------------------------------
# derived covers K -> [K,K] K^ell


def derived_cover(spec: CoverSpec, ell: int) -> CoverSpec:
    """Cover attached to [K,K] K^ell, returned with regular permutation
    images.  A coset of [K,K] K^ell is a pair (sheet h, class v over
    Z/ell in the mod-ell abelianization of K), and letter j moves it to
    (h j, v + rows[i]), where i is the loop id of the step from h along j
    and rows[i] the class of the Schreier generator t_h x_j t_{hj}^-1: the
    unit vector of loop i over an open base, its survivor row over a
    closed one (so the boundary relation stays killed), and 0 on a tree
    edge.  Cosets are numbered as DeckGroup numbers deck elements, in the
    shortlex order of their breadth-first words."""
    check_modulus(ell, "derived modulus", over_z=False)
    t = _table(spec)
    if spec.n >= 1:
        rows = [(0,) * t.L] + [tuple(int(i == k) for k in range(t.L))
                               for i in range(t.L)]
    else:
        rows = _chain(spec).survivor_rows
    degree = spec.degree * ell ** len(rows[0])
    if degree > DEFAULT_MAX_DEGREE:
        raise ResourceLimitError(f"derived cover degree {degree} exceeds "
                                 f"the bound {DEFAULT_MAX_DEGREE}")

    def move(j, coset):
        h, v = coset
        lid = t.loop_id(h, j)
        if lid:
            v = tuple((a + b) % ell for a, b in zip(v, rows[lid]))
        return spec.group.act[j - 1][h], v

    res = orbit_enumerate((0, rows[0]), range(1, t.N + 1), move, cap=degree)
    self_check(len(res.elements) == degree,
               "cosets reach the predicted degree")
    return perm_cover(spec.g, spec.n, degree, tuple(zip(*res.moves)),
                      declared_order=degree)


# --------------------------------------------------------------------------
# mapping classes acting on cover homology


def _twist_sequence(t):
    """Normalize a twist argument: a Twist, or a sequence of Twists and
    (Twist, sign) pairs, applied left to right."""
    if t is None:
        return []
    if hasattr(t, "apply"):
        return [(t, 1)]
    out = []
    for item in t:
        if hasattr(item, "apply"):
            out.append((item, 1))
        else:
            tw, sign = item
            if sign not in (1, -1):
                raise InvalidInputError("twist sign must be +1 or -1")
            out.append((tw, sign))
    return out


def _apply_sequence(seq, word):
    for tw, sign in seq:
        word = tw.apply(word) if sign > 0 else tw.apply_inv(word)
    return word


def _preserves(table, seq):
    """Whether the twist sequence maps every Schreier generator of the
    cover subgroup back into the subgroup, kept on the table per sequence."""
    key = tuple(seq)
    if key not in table.verdicts:
        trace = table.group.trace
        table.verdicts[key] = all(trace(0, _apply_sequence(seq, s)) == 0
                                  for s in table.loop_words)
    return table.verdicts[key]


def invariance_check(spec: CoverSpec, twists) -> bool:
    """True iff each twist preserves the cover subgroup."""
    t = _table(spec)
    return all(_preserves(t, _twist_sequence(item)) for item in twists)


def deck_coset_representative(hom: DeckHomology, M):
    """Lexicographically least matrix in the deck-image coset of M, found
    row by row: keep the deck matrices D whose row i of D M is least, for
    i = 0, 1, ... until one is left, then form that one product."""
    space = hom.space
    live = hom.matrices
    for i in range(space.dim):
        if len(live) == 1:
            break
        rows = [space.mat_apply(D[i], M) for D in live]
        least = min(rows)
        live = [D for D, r in zip(live, rows) if r == least]
    return space.mat_mul(live[0], M)


def mcg_action_on_cover(spec: CoverSpec, t, m: int):
    """Matrix induced on H_1 of the filled cover by a twist or a twist
    sequence preserving the cover subgroup; deck-coset ambiguity is fixed
    by returning the lexicographically least representative."""
    check_modulus(m, over_z=False)
    seq = _twist_sequence(t)
    if not _preserves(_table(spec), seq):
        raise ValidationError("invariance",
                              "twist does not preserve the cover subgroup")
    hom = cover_homology(spec, m)
    M = tuple(hom.class_of(_apply_sequence(seq, rep))
              for rep in hom._chain.basis_words)
    self_check(checked_matrix(hom.space.g, m, M).inverse is not None,
               "induced matrix is symplectic")
    return deck_coset_representative(hom, M)
