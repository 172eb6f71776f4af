"""Free-group words as tuples of nonzero ints.

Generator k (k >= 1) is written k, its inverse -k; the empty tuple is the
identity.  Every function returns a freely reduced word; inputs need not be
reduced.  On top of plain word arithmetic this module provides conjugacy
in free groups (with explicit conjugators), Stallings folding for subgroup
rank / membership / index, substitution, and inversion of a free-group
automorphism given by generator images, by a Stallings fold that carries
a word on every edge.
"""

from __future__ import annotations

import re
from operator import neg

from .errors import InvalidInputError
from .symplectic import check_int

Word = tuple


def wreduce(seq) -> Word:
    """Freely reduce a sequence of letters, nonzero ints (no bools)."""
    out = []
    for x in seq:
        if type(x) is not int:
            check_int(x, "letter")
        if x == 0:
            raise InvalidInputError(f"bad letter {x!r}")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def wmul(*words) -> Word:
    """Product of words."""
    cat = []
    for w in words:
        cat.extend(w)
    return wreduce(cat)


def winv(word) -> Word:
    # reduced before negating, so that wreduce sees (and refuses) a bool
    return tuple(map(neg, wreduce(reversed(word))))


def wpow(word, k: int) -> Word:
    check_int(k, "exponent")
    if k < 0:
        return wpow(winv(word), -k)
    return wmul(*([wreduce(word)] * k)) if k else ()


def wsub(word, images) -> Word:
    """Evaluate word by substituting images[k-1] for generator k."""
    parts = []
    for x in word:
        if type(x) is not int:
            check_int(x, "letter")
        if not 0 < abs(x) <= len(images):
            raise InvalidInputError(f"letter {x!r} outside 1..{len(images)}")
        im = images[abs(x) - 1]
        parts.append(im if x > 0 else winv(im))
    return wmul(*parts)


def commutator(a, b) -> Word:
    return wmul(a, b, winv(a), winv(b))


def max_letter(word) -> int:
    return max((abs(x) for x in word), default=0)


def cyclic_reduce(word):
    """Return (core, outer) with word = outer * core * outer^-1,
    core cyclically reduced."""
    w = wreduce(word)
    outer = []
    while len(w) >= 2 and w[0] == -w[-1]:
        outer.append(w[0])
        w = w[1:-1]
    return w, tuple(outer)


def cyclic_normal_form(word) -> Word:
    """Minimal rotation of the cyclic reduction; conjugacy invariant."""
    core, _ = cyclic_reduce(word)
    if not core:
        return ()
    return min(core[k:] + core[:k] for k in range(len(core)))


def conjugate_in_free(u, v) -> bool:
    return cyclic_normal_form(u) == cyclic_normal_form(v)


def solve_conjugator(u, v):
    """A word h with h*u*h^-1 == v, or None.  When the centralizer of u is
    nontrivial the choice among valid conjugators is arbitrary."""
    cu, au = cyclic_reduce(u)
    cv, av = cyclic_reduce(v)
    if len(cu) != len(cv):
        return None
    if not cu:
        return ()
    for k in range(len(cu)):
        if cu[k:] + cu[:k] == cv:
            s = cu[:k]
            return wmul(av, winv(s), winv(au))
    return None


_TOKEN = re.compile(r"\s*([A-Za-z])(\d+)")


def parse_word(text: str, names) -> Word:
    """Parse e.g. "a1B1u2" over names like ["a1","b1","u1","u2"]; an upper
    case first letter means inverse; "1" or "" is the identity."""
    if not isinstance(text, str):
        raise InvalidInputError(f"a word to parse must be a str, not {text!r}")
    stripped = text.replace("*", " ").strip()
    if stripped in ("", "1"):
        return ()
    lookup = {nm: i + 1 for i, nm in enumerate(names)}
    out = []
    pos = 0
    while pos < len(stripped):
        m = _TOKEN.match(stripped, pos)
        if not m:
            if stripped[pos].isspace():
                pos += 1
                continue
            raise InvalidInputError(f"cannot parse word {text!r} at offset {pos}")
        letter, num = m.group(1), m.group(2)
        key = letter.lower() + num
        if key not in lookup:
            raise InvalidInputError(f"unknown generator {letter}{num} in {text!r}")
        out.append(lookup[key] if letter.islower() else -lookup[key])
        pos = m.end()
    return wreduce(out)


def format_word(word, names) -> str:
    if not word:
        return "1"
    parts = []
    for x in word:
        if type(x) is not int:
            check_int(x, "letter")
        if not 0 < abs(x) <= len(names):
            raise InvalidInputError(f"letter {x!r} outside 1..{len(names)}")
        nm = names[abs(x) - 1]
        parts.append(nm if x > 0 else nm[0].upper() + nm[1:])
    return "".join(parts)


class FoldedGraph:
    """Stallings folding of the subgroup of a free group generated by the
    given words (loops at a base vertex of the bouquet cover).

    The loops are folded with a worklist: a union-find over vertices keeps
    one letter -> neighbour dict per class, and a merge moves the smaller
    dict into the larger, queueing each label clash as a further merge.
    A merge removes a vertex and moves at most 2 * rank entries, so total
    generator length L costs O(L * rank).  Vertex ids are internal."""

    def __init__(self, gens, rank: int):
        check_int(rank, "rank")
        self.ambient_rank = rank
        parent = [0]
        adj = [{}]
        pending = []
        for g in gens:
            w = wreduce(g)
            if max_letter(w) > rank:
                raise InvalidInputError("generator uses a letter beyond the rank")
            prev = 0
            for i, x in enumerate(w):
                nxt = 0 if i == len(w) - 1 else len(parent)
                if nxt:
                    parent.append(nxt)
                    adj.append({})
                for a, y, b in ((prev, x, nxt), (nxt, -x, prev)):
                    t = adj[a].setdefault(y, b)
                    if t != b:
                        pending.append((t, b))
                prev = nxt

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        while pending:
            a, b = map(find, pending.pop())
            if a == b:
                continue
            if len(adj[a]) < len(adj[b]):
                a, b = b, a
            parent[b] = a
            for y, t in adj[b].items():
                s = adj[a].setdefault(y, t)
                if s != t:
                    pending.append((s, t))
            adj[b] = None

        roots = [v for v in range(len(parent)) if parent[v] == v]
        self._out = {(v, y): find(t) for v in roots for y, t in adj[v].items()}
        self.base = find(0)
        self.n_vertices = len(roots)
        # a folded edge u -x-> v is stored once as (u, x) and once as (v, -x)
        self.n_edges = len(self._out) // 2

    def rank(self) -> int:
        return self.n_edges - self.n_vertices + 1

    def trace(self, word, start=None):
        """Endpoint of the path reading word from start, or None."""
        v = self.base if start is None else start
        for x in wreduce(word):
            v = self._out.get((v, x))
            if v is None:
                return None
        return v

    def contains(self, word) -> bool:
        return self.trace(word) == self.base

    def index(self):
        """Index in the ambient free group if finite, else None: finite
        exactly when every vertex has an edge out with every letter."""
        if len(self._out) == 2 * self.ambient_rank * self.n_vertices:
            return self.n_vertices
        return None

    def generates_ambient(self) -> bool:
        return self.index() == 1


def invert_basis(images, rank: int):
    """Given images[k-1] = phi(x_k) for an automorphism phi of the free
    group of the given rank, return expr with expr[k-1] a word in symbols
    1..rank such that substituting images into it yields x_k.

    Interpreting the output symbols as the original generators gives the
    inverse automorphism.  The images are folded as petals at the base, as
    in FoldedGraph, with a word in the symbols on every edge: symbol i on
    the first edge of petal i, the empty word elsewhere, inverses on reverse
    edges.  Invariant: along a closed path at the base the words multiply to
    one that substitutes to the reduced word the path reads.  An edge u -> t
    carrying h reads G(u) h G(t)^-1, where the gauge G(v) = G(parent) pot[v]
    is kept in the union-find (G = 1 at roots).  When two edges leave a
    class with one letter, read h1, h2 and end in different classes, the end
    that is not the base is regauged by g = h1^-1 h2 (g on the left of words
    leaving it, g^-1 on the right of words entering it) and merged into the
    other.  The images generate exactly when the fold ends in the bouquet,
    and loop x then reads expr[x-1].  Any correct inversion returns these
    words, as over a free basis each x_k has exactly one reduced expression.
    """
    check_int(rank, "rank")
    W = [wreduce(w) for w in images]
    if len(W) != rank or max(map(max_letter, W), default=0) > rank:
        raise InvalidInputError("need rank images in the letters 1..rank")
    # an edge is (source, target, word); adj[root] maps letter -> edge
    parent, pot, adj, pending = [0], [()], [{}], []
    for i, w in enumerate(W):
        prev, h = 0, (i + 1,)
        for j, x in enumerate(w):
            nxt = 0 if j == len(w) - 1 else len(parent)
            if nxt:
                parent.append(nxt)
                pot.append(())
                adj.append({})
            for a, y, e in ((prev, x, (prev, nxt, h)),
                            (nxt, -x, (nxt, prev, winv(h)))):
                s = adj[a].setdefault(y, e)
                if s is not e:
                    pending.append((s, e))
            prev, h = nxt, ()

    def find(v):
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        for u in reversed(path[:-1]):
            pot[u], parent[u] = wmul(pot[parent[u]], pot[u]), v
        return v

    def read(u, t, h):
        find(u)
        find(t)
        return wmul(pot[u], h, winv(pot[t]))

    while pending:
        e1, e2 = pending.pop()
        r1, r2 = find(e1[1]), find(e2[1])
        if r1 == r2:
            continue
        g = wmul(winv(read(*e1)), read(*e2))
        if r2 == 0 or (r1 != 0 and len(adj[r1]) < len(adj[r2])):
            r1, r2, g = r2, r1, winv(g)
        parent[r2], pot[r2] = r1, g
        for y, e in adj[r2].items():
            s = adj[r1].setdefault(y, e)
            if s is not e:
                pending.append((s, e))
        adj[r2] = None

    if len(adj[0]) != 2 * rank or any(find(t) for _, t, _ in adj[0].values()):
        raise InvalidInputError("images do not generate the free group")
    return [read(*adj[0][x]) for x in range(1, rank + 1)]
