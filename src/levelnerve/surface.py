"""Surface group presentations, twist automorphisms, and the branched model.

The group of S_{g,n} is presented on a_1..a_g, b_1..b_g, u_1..u_n with the
single relation [a_1,b_1]...[a_g,b_g] u_n...u_1 = 1.  Internally we work in
free groups: for n >= 1 the group itself is free of rank 2g+n-1 (u_1 is
solved from the relation); for n = 0 the closed group is the quotient of the
once-marked model by its boundary word.  Internal letter numbering: a_i -> i,
b_i -> g+i, u_j -> 2g+j-1 for j >= 2.

For g >= 1 the surface is realized as the double cover of a disk branched
over B collinear points with k further marked points; so that the twist
family is a full chain of 2g+1 curves, the model always uses an even number
of boundary classes (B = 2g+2), padding the signature with at most one
phantom marked point which is erased (n >= 1) or carried internally (n = 0)
afterwards.  The free group upstairs is generated by p_j = x_j x_1
(j = 2..B), y_l, and x_1 y_l x_1, reached by two-state rewriting.  The
standard basis comes from the boundary words, which are E-form words
z_1..z_r z_1^-1..z_r^-1 in the chain letters and split into commutators by
the recursion E = [z1 z2, (z3..zr) z2] * E(z3..zr).  Twists are lifts of
inverse Artin generators; each twist's homology matrix is the inverse
transvection x -> x - <x,v>v along its curve class v.  Every one of these
identities is checked at construction time.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvalidInputError, self_check
from .symplectic import SympSpace, check_int, check_modulus
from .words import (
    FoldedGraph,
    commutator,
    conjugate_in_free,
    format_word,
    invert_basis,
    parse_word,
    winv,
    wmul,
    wreduce,
    wsub,
)


def _esplit(zs):
    """Commutator pairs whose product is the E-form word on odd-length zs."""
    if len(zs) <= 1:
        return []
    W = wmul(*zs[2:])
    return [(wmul(zs[0], zs[1]), wmul(W, zs[1]))] + _esplit(zs[2:])


class BranchedModel:
    """Double cover of a disk branched over B = 2g + 2 collinear points with
    k marked points to their right, for an even nprime = 2k + 2.  Translates
    between the free group downstairs (letters x_1..x_B, then y_1..y_k) and
    the surface side (letters p_2..p_B as 1..B-1, then y_1..y_k, then their
    x_1-conjugates)."""

    def __init__(self, g: int, nprime: int):
        if g < 1:
            raise InvalidInputError("branched model needs genus >= 1")
        if nprime % 2:
            raise InvalidInputError("branched model needs an even nprime")
        self.g = g
        self.nprime = nprime
        self.k = (nprime - 2) // 2
        self.B = 2 * g + 2
        self.N = 2 * g + nprime - 1
        self_check(self.B - 1 + 2 * self.k == self.N, "rank bookkeeping")
        self._build_base_change()

    # -- letters

    def p(self, j):
        """p_j = x_j x_1, j = 2..B."""
        return (j - 1,)

    def y(self, l):
        return (self.B - 1 + l,)

    def ybar(self, l):
        return (self.B - 1 + self.k + l,)

    def rewrite(self, word):
        """Rewrite an even word in downstairs letters (x_i as i, y_l as B+l)
        into upstairs letters."""
        out = []
        state = 0
        for letter in word:
            a = abs(letter)
            if a <= self.B:
                if a >= 2:
                    out.append((a - 1) if state == 0 else -(a - 1))
                state ^= 1
            elif a <= self.B + self.k:
                l = a - self.B
                base = (self.B - 1 + l) if state == 0 \
                    else (self.B - 1 + self.k + l)
                out.append(base if letter > 0 else -base)
            else:
                raise InvalidInputError(f"letter {letter} out of range")
        if state != 0:
            raise InvalidInputError("word has odd branch parity")
        return wreduce(out)

    def expand(self, upstairs_word):
        """Inverse of rewrite on generators: an even downstairs word mapping
        back to the given upstairs word."""
        images = [(j, 1) for j in range(2, self.B + 1)]
        images += [(self.B + l,) for l in range(1, self.k + 1)]
        images += [(1, self.B + l, 1) for l in range(1, self.k + 1)]
        return wreduce(wsub(upstairs_word, [wreduce(i) for i in images]))

    def braid_images(self, i: int, sign: int):
        """Artin generator sigma_i^sign on the downstairs free group."""
        if not (1 <= i <= self.B - 1):
            raise InvalidInputError("braid index out of range")
        n_letters = self.B + self.k
        im = [(t,) for t in range(1, n_letters + 1)]
        if sign > 0:
            im[i - 1] = (i, i + 1, -i)
            im[i] = (i,)
        else:
            im[i - 1] = (i + 1,)
            im[i] = (-(i + 1), i, i + 1)
        return im

    # -- base change

    def _build_base_change(self):
        g, k, B, nprime = self.g, self.k, self.B, self.nprime
        zs = [self.p(j) if j % 2 == 1 else winv(self.p(j))
              for j in range(2, B + 1)]
        P = wmul(*zs)
        Pp = wmul(*[winv(z) for z in zs])
        Y = wmul(*[self.y(l) for l in range(1, k + 1)])
        Ybar = wmul(*[self.ybar(l) for l in range(1, k + 1)])
        pairs = _esplit(zs)
        self_check(len(pairs) == g, "commutator pair count")
        self_check(wmul(*[commutator(a, b) for a, b in pairs]) == wmul(P, Pp),
                   "E-form splitting")
        us = {}
        down_all = tuple(range(1, B + 1)) \
            + tuple(B + l for l in range(1, k + 1))
        d1 = self.rewrite(down_all)
        d2 = self.rewrite((1,) + down_all + (1,))
        self_check(d1 == wmul(P, Y), "even boundary word 1")
        self_check(d2 == wmul(Pp, Ybar), "even boundary word 2")
        us[1] = winv(d1)
        us[k + 2] = winv(d2)
        for l in range(1, k + 1):
            us[nprime + 1 - l] = self.ybar(l)
            us[k + 2 - l] = self.y(l)

        std = [a for a, _ in pairs] + [b for _, b in pairs] \
            + [us[j] for j in range(2, nprime + 1)]
        self_check(len(std) == self.N, "standard basis size")
        prod = wmul(*[commutator(a, b) for a, b in pairs])
        tail = wmul(*[us[j] for j in range(nprime, 0, -1)])
        self_check(wmul(prod, tail) == (), "surface relation")
        self_check(FoldedGraph(std, self.N).generates_ambient(),
                   "standard basis generates")
        for t in range(1, self.N + 1):
            self_check(self.rewrite(self.expand((t,))) == (t,),
                       "rewrite/expand inverse")

        self.std = std
        self._inv_expr = invert_basis(std, self.N)

    def to_std(self, pword):
        """Upstairs letters -> standard letters."""
        return wsub(pword, self._inv_expr)

    def twist_images(self, i: int):
        """The standard-letter automorphism of the twist along the lift of
        the arc between branch points i and i+1 (lift of sigma_i^-1)."""
        bi = self.braid_images(i, -1)
        out = []
        for s in self.std:
            img_down = wsub(self.expand(s), bi)
            out.append(self.to_std(self.rewrite(img_down)))
        return out

    def chain_curve_word(self, i: int):
        """Standard-letter word of the lifted arc between points i, i+1."""
        return self.to_std(self.rewrite((i, i + 1)))


class Twist:
    """A Dehn twist acting as an automorphism of the free group on the
    public generators.  For closed surfaces this is the induced action on
    pi_1 of the once-punctured model (the twist conjugates the relator)."""

    def __init__(self, name, images, inv_images, curve_word, curve_class,
                 hom_matrix):
        self.name = name
        self.images = images
        self.inv_images = inv_images
        self.curve_word = curve_word
        self.curve_class = curve_class
        self.hom_matrix = hom_matrix

    def apply(self, word):
        return wsub(word, self.images)

    def apply_inv(self, word):
        return wsub(word, self.inv_images)


class SurfacePresentation:
    """Combinatorial model of S_{g,n} for a hyperbolic signature
    (2g - 2 + n > 0)."""

    def __init__(self, g: int, n: int):
        check_int(g, "genus")
        check_int(n, "number of marked points")
        if g < 0 or n < 0 or 2 * g - 2 + n <= 0:
            raise InvalidInputError(f"signature ({g}, {n}) not hyperbolic")
        self.g = g
        self.n = n
        self.N = 2 * g + max(n, 1) - 1
        self.names = [f"a{i}" for i in range(1, g + 1)] \
            + [f"b{i}" for i in range(1, g + 1)] \
            + [f"u{j}" for j in range(2, max(n, 1) + 1)]
        if g >= 1:
            self.npm = max(2, n + (n % 2))
            self.model = BranchedModel(g, self.npm)
            self.model_rank = self.model.N
        else:
            self.npm = n
            self.model = None
            self.model_rank = self.N
        # the padded marked point, when present, is always the last letter
        self.phantom = self.model_rank - self.N
        self_check(self.phantom in (0, 1), "phantom bookkeeping")
        self._twists = None

    # -- words

    def _kill_phantom(self, word):
        if not self.phantom:
            return wreduce(word)
        t = self.model_rank
        return wreduce([x for x in word if abs(x) != t])

    def from_model(self, down_word):
        """The public word of a word in the branched model's downstairs
        letters: rewritten upstairs, changed to the standard basis, and
        with the phantom marked point erased."""
        return self._kill_phantom(
            self.model.to_std(self.model.rewrite(down_word)))

    def check_word(self, word):
        w = wreduce(word)
        for x in w:
            if not (1 <= abs(x) <= self.N):
                raise InvalidInputError(f"letter {x} outside presentation")
        return w

    def u_letter(self, j):
        """Internal letter index of u_j for j >= 2."""
        if not (2 <= j <= self.n):
            raise InvalidInputError("no such puncture letter")
        return 2 * self.g + j - 1

    def u1_word(self):
        """u_1 solved from the relation, in the public generators."""
        parts = [commutator((i,), (self.g + i,)) for i in range(1, self.g + 1)]
        tail = [(self.u_letter(j),) for j in range(max(self.n, 1), 1, -1)]
        return winv(wmul(*parts, *tail))

    def puncture_word(self, j):
        """Representative of the j-th puncture class, 1-indexed."""
        if not (1 <= j <= self.n):
            raise InvalidInputError("no such puncture")
        if j == 1:
            return self.u1_word()
        return (self.u_letter(j),)

    def parse(self, text):
        if self.n >= 1:
            full = [f"a{i}" for i in range(1, self.g + 1)] \
                + [f"b{i}" for i in range(1, self.g + 1)] \
                + [f"u{j}" for j in range(1, self.n + 1)]
            w = parse_word(text, full)
            images = [(i,) for i in range(1, 2 * self.g + 1)] \
                + [self.u1_word()] \
                + [(self.u_letter(j),) for j in range(2, self.n + 1)]
            return wsub(w, images)
        w = parse_word(text, self.names)
        return self.check_word(w)

    def format(self, word):
        return format_word(self.check_word(word), self.names)

    def homology_class(self, word, m: int = 0):
        """Class in H_1 of the closed surface (u letters killed),
        interleaved coordinates (a_1, b_1, a_2, b_2, ...)."""
        check_modulus(m)
        v = [0] * (2 * self.g)
        for x in wreduce(word):
            a = abs(x)
            if not (1 <= a <= self.model_rank):
                raise InvalidInputError(f"letter {x} outside presentation")
            s = 1 if x > 0 else -1
            if a <= self.g:
                v[2 * (a - 1)] += s
            elif a <= 2 * self.g:
                v[2 * (a - self.g - 1) + 1] += s
        if m:
            v = [c % m for c in v]
        return tuple(v)

    def open_class(self, word):
        """Free abelianization over the public letters (u_1 eliminated)."""
        w = self.check_word(word)
        v = [0] * self.N
        for x in w:
            v[abs(x) - 1] += 1 if x > 0 else -1
        return tuple(v)

    # -- data for covering-space constructions

    def cover_rank(self):
        """Number of free letters covering computations run over."""
        return self.N

    def cover_puncture_words(self):
        """Words whose lifts are filled when a cover is compactified: the n
        puncture classes for n >= 1, or the single boundary class of the
        once-punctured model for n = 0 (covers of the closed surface must
        kill it)."""
        if self.n >= 1:
            return [self.puncture_word(j) for j in range(1, self.n + 1)]
        return [self.u1_word()]

    # -- twists

    def twists(self):
        """Chain twist family: 2g+1 twists whose homology matrices are the
        inverse transvections along a chain of curve classes (g >= 1), or
        the n-1 pair twists for g = 0."""
        if self._twists is not None:
            return self._twists
        self._twists = tuple(self._build_twists())
        return self._twists

    def _build_twists(self):
        if self.g == 0:
            return self._genus0_twists()
        spz = SympSpace(self.g, 0)
        out = []
        for i in range(1, self.model.B):
            model_images = self.model.twist_images(i)
            self_check(FoldedGraph(model_images,
                               self.model_rank).generates_ambient(),
                       "model twist is an automorphism")
            if self.phantom:
                # the padded point class must be honestly conjugated, which
                # is what makes erasing its letter an automorphism below
                t = self.model_rank
                self_check(conjugate_in_free(model_images[t - 1], (t,)),
                           "twist fixes the padded point class")
            images = [self._kill_phantom(w) for w in model_images[:self.N]]
            self_check(FoldedGraph(images, self.N).generates_ambient(),
                       "twist is an automorphism")
            inv_images = invert_basis(images, self.N)
            curve = self._kill_phantom(self.model.chain_curve_word(i))
            v = self.homology_class(curve)
            rows = [None] * (2 * self.g)
            for t in range(self.g):
                rows[2 * t] = self.homology_class(images[t])
                rows[2 * t + 1] = self.homology_class(images[self.g + t])
            M = tuple(rows)
            self_check(M == spz.inverse_transvection(v),
                       "twist homology is the inverse transvection")
            for j in range(1, self.n + 1):
                uj = self.puncture_word(j)
                self_check(conjugate_in_free(wsub(uj, images), uj),
                           "twist fixes puncture classes")
            if self.n == 0:
                rel = wmul(*[commutator((i2,), (self.g + i2,))
                             for i2 in range(1, self.g + 1)])
                self_check(conjugate_in_free(wsub(rel, images), rel),
                           "twist conjugates the relator")
            out.append(Twist(f"t{i}", images, inv_images, curve, v, M))
        return out

    def _genus0_twists(self):
        n = self.n
        temp_to_public = [self.u1_word()] + [(j - 1,) for j in range(2, n + 1)]
        out = []
        for i in range(1, n):
            # pair twist about the curve enclosing punctures i, i+1; the
            # conjugator order matches the decreasing relator u_n ... u_1
            c = (i + 1, i)
            im = [(j,) for j in range(1, n + 1)]
            im[i - 1] = wmul(c, (i,), winv(c))
            im[i] = wmul(c, (i + 1,), winv(c))
            images = [wsub(wsub((t,), im), temp_to_public)
                      for t in range(2, n + 1)]
            self_check(FoldedGraph(images, self.N).generates_ambient(),
                       "twist is an automorphism")
            inv_images = invert_basis(images, self.N)
            curve = wsub(c, temp_to_public)
            for j in range(1, n + 1):
                uj = self.puncture_word(j)
                self_check(conjugate_in_free(wsub(uj, images), uj),
                           "twist fixes puncture classes")
            out.append(Twist(f"t{i}", images, inv_images, curve, (), ()))
        return out


# typed, so that True and 1.0 reach the checks instead of the entry for 1
@lru_cache(maxsize=None, typed=True)
def presentation(g: int, n: int) -> SurfacePresentation:
    return SurfacePresentation(g, n)


def twist_automorphisms(g: int, n: int):
    return presentation(g, n).twists()


def homology_class(word, g: int, n: int, m: int = 0, target: str = "closed"):
    """Abelianization of a word (text or letter tuple): `closed` kills the
    u letters and reduces into H_1(S_g, Z/m); `open` is the abelianization
    over the public free generators."""
    pres = presentation(g, n)
    if isinstance(word, str):
        word = pres.parse(word)
    if target == "closed":
        return pres.homology_class(word, m)
    if target == "open":
        check_modulus(m)
        v = pres.open_class(word)
        if m:
            v = tuple(c % m for c in v)
        return v
    raise InvalidInputError(f"unknown target {target!r}")
