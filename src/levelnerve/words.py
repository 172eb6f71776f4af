"""Free-group words as tuples of nonzero ints.

Generator k (k >= 1) is written k, its inverse -k; the empty tuple is the
identity.  Every function returns a freely reduced word; inputs need not be
reduced.  On top of plain word arithmetic this module provides conjugacy
in free groups (with explicit conjugators), Stallings folding for subgroup
rank / membership / index, substitution, and inversion of a free-group
automorphism given by generator images.
"""

from __future__ import annotations

import re
from collections import deque

from .errors import InvalidInputError, LevelNerveError

Word = tuple


def wreduce(seq) -> Word:
    """Freely reduce a letter sequence."""
    out = []
    for x in seq:
        if not isinstance(x, int) or x == 0:
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
    return wreduce(-x for x in reversed(word))


def wpow(word, k: int) -> Word:
    if k < 0:
        return wpow(winv(word), -k)
    return wmul(*([wreduce(word)] * k)) if k else ()


def wsub(word, images) -> Word:
    """Evaluate word by substituting images[k-1] for generator k."""
    parts = []
    for x in word:
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


def _all_length_one(ws):
    return all(len(w) == 1 for w in ws)


def _neighbor_moves(W):
    """Elementary moves as (i, new_word_fn, expr_fn); expr_fn maps the
    parallel expression tuple to its new i-th entry."""
    n = len(W)
    moves = []
    for i in range(n):
        moves.append((i, winv(W[i]), lambda E, i=i: winv(E[i])))
        for j in range(n):
            if i == j:
                continue
            for s in (1, -1):
                wj = W[j] if s > 0 else winv(W[j])
                moves.append((i, wmul(W[i], wj),
                              lambda E, i=i, j=j, s=s:
                              wmul(E[i], E[j] if s > 0 else winv(E[j]))))
                moves.append((i, wmul(wj, W[i]),
                              lambda E, i=i, j=j, s=s:
                              wmul(E[j] if s > 0 else winv(E[j]), E[i])))
    return moves


def _state_key(W):
    return tuple(sorted(min(w, winv(w)) for w in W))


def invert_basis(images, rank: int):
    """Given images[k-1] = phi(x_k) for an automorphism phi of the free
    group of the given rank, return expr with expr[k-1] a word in symbols
    1..rank such that substituting images into it yields x_k.

    Interpreting the output symbols as the original generators gives the
    inverse automorphism.  Uses Nielsen reduction of the image tuple with a
    breadth-first detour through length-preserving moves when the greedy
    length reduction stalls.
    """
    W = [wreduce(w) for w in images]
    if len(W) != rank:
        raise InvalidInputError("need exactly rank images")
    if not FoldedGraph(W, rank).generates_ambient():
        raise InvalidInputError("images do not generate the free group")
    E = [(i + 1,) for i in range(rank)]

    def reducing_move(Wcur):
        for (i, neww, efn) in _neighbor_moves(Wcur):
            if len(neww) < len(Wcur[i]):
                return (i, neww, efn)
        return None

    while not _all_length_one(W):
        mv = reducing_move(W)
        if mv is None:
            # breadth-first search through length-preserving moves until a
            # configuration with a length-reducing move appears
            start = (tuple(W), tuple(E))
            seen = {_state_key(W)}
            queue = deque([start])
            found = None
            while queue:
                curW, curE = queue.popleft()
                for (i, neww, efn) in _neighbor_moves(list(curW)):
                    if len(neww) > len(curW[i]):
                        continue
                    nW = list(curW)
                    nE = list(curE)
                    nE[i] = efn(curE)
                    nW[i] = neww
                    if len(neww) < len(curW[i]):
                        found = (nW, nE)
                        break
                    key = _state_key(nW)
                    if key in seen:
                        continue
                    seen.add(key)
                    if len(seen) > 200000:
                        raise LevelNerveError("basis inversion search blew up")
                    queue.append((tuple(nW), tuple(nE)))
                if found:
                    break
            if not found:
                raise LevelNerveError("basis inversion stalled")
            W, E = found
        else:
            i, neww, efn = mv
            E[i] = efn(E)
            W[i] = neww

    expr = [None] * rank
    for i, w in enumerate(W):
        k = abs(w[0])
        if expr[k - 1] is not None:
            raise InvalidInputError("images are not a basis")
        expr[k - 1] = E[i] if w[0] > 0 else winv(E[i])
    return expr
