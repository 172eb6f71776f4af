"""Exact linear algebra over Z and Z/m, and symplectic modules H = (Z/m)^2g.

All arithmetic is on Python ints; nothing here floats or overflows.  The
modulus m = 0 means working over Z itself; m = 1 is rejected everywhere.
Vectors are row tuples and matrices act on the right (x -> x*F).  The
symplectic basis is interleaved: a_1, b_1, a_2, b_2, ..., with <a_i, b_i> = 1.

Subgroups of (Z/m)^n are handled through their preimage lattices
L = span(lifts) + m*Z^n inside Z^n; the Hermite normal form of L is the
canonical representation, and the Smith divisors of L give the order, the
rank and the direct-summand (primitivity) test.  For prime m both are read
off the reduced row echelon form over F_m (see SympSubgroup); composite m
and m = 0 run hnf and snf_diagonal.  The radical of a subgroup is the
kernel of the Gram matrix of its canonical generators mod m, mapped back
into the subgroup.

There is one integer echelon and one Smith routine.  hnf is the echelon;
hnf_transform runs it with the transform, and kernels, coordinates and
inverses are read off its (h, t) pairs.  snf_sparse gives the Smith
divisors without transforms: it eliminates on {column: entry} rows with
an index from each column to its rows, and takes first the unit pivots
that make no fill, so a large sparse boundary matrix is never made
dense.  snf_diagonal is its entry for a dense matrix, and
smith_normal_form the checked one, on dense or {column: entry} rows.
For prime m the echelon over F_p takes their place: _rref_mod_p gives
the canonical form, and rref_transform, its run with the transform,
gives kernels (SympSpace.row_kernel, for perp and radical) and
coordinates in the same (h, t) pairs.  Over a field every quotient is
free, so no Smith form is needed there.

Only this module chooses between the two.  Other modules ask their
lattice questions of SympSpace and SympSubgroup (row_kernel, solver,
cokernel_invariants, relations, quotient_rank, corank,
splits_off_radical), which at prime m read them off echelon forms over
F_p.  SympSpace.solver, the one coordinate routine, writes x as c * rows
mod m, or reports that x is outside their span.  At prime m the nonzero
echelon rows h of rref_transform are 1 at their own pivot and 0 at the
others, so a member x of their span is the sum of x[j] h over the pivots j,
with coordinates the sum of x[j] t; a subgroup's canonical generators are
such rows.  Otherwise x is reduced greedily over Z against hnf_transform of
the rows and the m*e_j (_int_coords), never mod m on the way: with
dependent rows the coordinates are not unique, and callers may read them.

At m = 2 a vector can also be packed into one int, bit k holding
coordinate k (pack_f2).  A sum of vectors is then an XOR, and x*F is the
XOR of the packed rows of F at the set bits of x (f2_image).  A subgroup
keeps its echelon rows packed as well (SympSubgroup.f2_rows), so that
membership is a few XORs (SympSubgroup.contains_f2).  Checked matrices,
deck_matrices and the echelon over F_2 use packed rows: _rref_mod_p
eliminates by XOR at p = 2, so lattice, rref_transform (row_kernel,
solver) and cokernel_invariants run packed there, and it hands its rows
back unpacked.  apply, perp, radical and vec_mat stay on row tuples, odd
primes on integer entries.

A matrix is checked once per value: checked_matrix(g, m, F) is the one
memoized record (CheckedMatrix) of its reduced rows, its inverse when it
is symplectic and, at m = 2, its packed rows.  The record answers the
questions an action check asks of a matrix: whether it maps one
subgroup onto another, on the packed rows at m = 2, and the sign-normal
image of a frame, which it keeps for the checks and for transport alike
(frame_image).  Other modules read the record and neither check, invert
nor pack a matrix themselves.  tree_walk is the one breadth-first
search: it computes values along a spanning forest of any graph and
returns the other edges.  On it cayley_fill forms deck products
(deck_matrices) and permutations, schreier_edges reads off a
stabilizer's generators, and the other modules read transports, faces,
potentials, transversals, fundamental cuts and merged pieces, none of
them by replaying a word.

A subgroup exists once per space and lattice: SympSpace.subgroup
computes the lattice of each generator row list once (SympSpace.lattice:
the echelon form over F_m at prime m, hnf otherwise) and constructs a
SympSubgroup only for a lattice the space has not seen, so the Smith
form of composite m runs once per lattice.  One table on the space keeps
the instance under its lattice and under every row list that reached it
(the rows of a lattice generate the subgroup it describes).  So every
answer a subgroup keeps is computed once per lattice: its canonical
generators, relations, radical, cyclic generator and whether it splits
off its radical, and, by argument, the coordinates of a vector (coords),
orthogonality to another subgroup (orthogonal, which gives is_isotropic)
and its images under matrices (apply).  The space keeps the span of each
tuple of its subgroups (SympSpace.span), and the solver (the subgroups'
too) and cokernel invariants of each value of rows and width.  The memos
live on the space and its subgroups only, so they last as long as the
values of one build.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .errors import InvalidInputError, LevelNerveError, ResourceLimitError


# ---------------------------------------------------------------------------
# integer matrices


def mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    if not A or not B:
        return []
    return [list(vec_mat(row, B)) for row in A]


def vec_mat(x, F):
    """x * F; only the rows of F whose coefficient in x is nonzero are
    summed, so sparse vectors cost what their support costs."""
    out = [0] * len(F[0])
    for i in range(len(F)):
        c = x[i]
        if c:
            out = [a + c * b for a, b in zip(out, F[i])]
    return tuple(out)


def pack_f2(vec):
    """The int whose bit k is coordinate k of vec mod 2."""
    return sum(1 << k for k, a in enumerate(vec) if a & 1)


def f2_image(x, rows):
    """x*F over F_2 for a packed x and the packed rows of F: the XOR of
    the rows at the set bits of x."""
    out = 0
    while x:
        low = x & -x
        out ^= rows[low.bit_length() - 1]
        x ^= low
    return out


def _sign_normal(vec, m):
    """The lesser of vec and -vec, both reduced mod m (over Z at m = 0)."""
    if m:
        return min(tuple(a % m for a in vec), tuple(-a % m for a in vec))
    return min(tuple(vec), tuple(-a for a in vec))


def hnf(rows):
    """Row Hermite normal form: positive pivots in staircase order, entries
    above each pivot reduced into [0, pivot), zero rows dropped."""
    M = [list(map(int, r)) for r in rows if any(r)]
    if not M:
        return []
    ncols = len(M[0])
    row = 0
    for col in range(ncols):
        if row >= len(M):
            break
        sel = [r for r in range(row, len(M)) if M[r][col]]
        if not sel:
            continue
        while len(sel) > 1:
            sel.sort(key=lambda r: abs(M[r][col]))
            r0 = sel[0]
            for r in sel[1:]:
                q = M[r][col] // M[r0][col]
                M[r] = [a - q * b for a, b in zip(M[r], M[r0])]
            sel = [r for r in range(row, len(M)) if M[r][col]]
        r0 = sel[0]
        M[row], M[r0] = M[r0], M[row]
        if M[row][col] < 0:
            M[row] = [-a for a in M[row]]
        for r in range(row):
            q = M[r][col] // M[row][col]
            if q:
                M[r] = [a - q * b for a, b in zip(M[r], M[row])]
        row += 1
    return [r for r in M if any(r)]


def hnf_transform(rows):
    """Hermite form with its transform: one (h, t) pair per input row,
    with t * rows = h.  The h rows are hnf(rows) followed by zero rows and
    the t rows form a unimodular matrix.  The rows are echelonized with an
    identity block appended, so no augmented row is zero and none is
    dropped."""
    k = len(rows)
    n = len(rows[0]) if rows else 0
    aug = hnf([list(r) + [1 if j == i else 0 for j in range(k)]
               for i, r in enumerate(rows)])
    return [(row[:n], row[n:]) for row in aug]


def _int_coords(pairs):
    """x -> integer coordinates of x over a row lattice, or None.

    pairs is hnf_transform of the rows.  x is reduced greedily against
    the Hermite rows, whose pivots are found once; the transform rows
    collected on the way express x as an integer combination of the
    original rows whenever the residual vanishes.  The rows after a
    Hermite row are zero in its pivot column, so a remainder there leaves
    x outside."""
    k = len(pairs)
    steps = [(next(j for j, a in enumerate(h) if a), h, t)
             for h, t in pairs if any(h)]

    def coords(vec):
        v = list(vec)
        coeff = [0] * k
        for j, h, t in steps:
            q, r = divmod(v[j], h[j])
            if r:
                return None
            if q:
                v = [a - q * b for a, b in zip(v, h)]
                coeff = [a + q * b for a, b in zip(coeff, t)]
        return None if any(v) else tuple(coeff)
    return coords


def _free_rank(divisors, m, n):
    """The rank of Z^n / L as a free Z/m-module (Z at m = 0) for the
    nonzero Smith divisors of L, or None: it is free exactly when every
    divisor is 1 or m, of rank n less the number of 1s."""
    if all(d in (1, m) for d in divisors):
        return n - divisors.count(1)
    return None


def snf_diagonal(mat):
    """The Smith diagonal of a dense integer matrix: snf_sparse on its
    nonzero entries."""
    return snf_sparse([{j: a for j, a in enumerate(r) if a} for r in mat],
                      len(mat[0]) if mat else 0)


def snf_sparse(rows, width):
    """The Smith diagonal of the matrix whose rows are {column: entry}
    dicts over width columns: min(len(rows), width) nonnegative entries,
    each dividing the next.  Zero entries may be left out or given.

    Rows are eliminated on copies, with an index from each column to the
    rows that hold it.  The pivot is, first, a unit alone in its column,
    which makes no fill (a worklist keeps the columns left with one row);
    else a unit of the shortest row holding one, in the column with the
    fewest rows (a heap keeps the rows by length, so a row holding only a
    unit comes first and makes no fill either); else the least entry in
    absolute value.  Row operations clear the pivot's column as far as
    they can.  Once it is clear, column operations touch only the pivot
    row: they reduce it modulo the pivot, which splits the pivot off as a
    divisor when nothing remains, as it always does for a unit.  The
    split divisors are brought into chain form by diag(a, b) ~
    diag(gcd, lcm) and padded with zeros to min(r, c)."""
    import heapq  # here, so that importing the package does not load it

    size = min(len(rows), width)
    rows = {i: {j: a for j, a in r.items() if a} for i, r in enumerate(rows)}
    rows = {i: r for i, r in rows.items() if r}
    cols = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)
    lone = [j for j, c in cols.items() if len(c) == 1]
    # rows by length: an entry for a row that grew since is put back at
    # its new length, and a row taken off for holding no unit (spare)
    # goes back when it next changes
    short = [(len(r), i) for i, r in rows.items()]
    heapq.heapify(short)
    spare = set()

    def unlink(t, i):
        c = cols[t]
        c.discard(i)
        if len(c) == 1:
            lone.append(t)
        elif not c:
            del cols[t]

    divs = []
    while rows:
        i = None
        while lone and i is None:
            j = lone.pop()
            c = cols.get(j)
            if c is not None and len(c) == 1:
                k, = c
                if rows[k][j] in (1, -1):
                    i = k
        while short and i is None:
            n, k = heapq.heappop(short)
            r = rows.get(k)
            if r is not None and len(r) > n:
                heapq.heappush(short, (len(r), k))
            elif r is not None and len(r) == n:
                units = [t for t, a in r.items() if a in (1, -1)]
                if units:
                    i = k
                    j = min(units, key=lambda t: len(cols[t]))
                else:
                    spare.add(k)
        if i is None:
            least, i = min((min(map(abs, r.values())), k)
                           for k, r in rows.items())
            j = min(t for t, a in rows[i].items() if abs(a) == least)
        prow = rows[i]
        p = prow[j]
        clear = True
        for k in [k for k in cols[j] if k != i]:
            r = rows[k]
            n = len(r)
            q = r[j] // p
            for t, a in prow.items():
                v = r.get(t, 0) - q * a
                if v:
                    if t not in r:
                        cols[t].add(k)
                    r[t] = v
                else:
                    del r[t]
                    unlink(t, k)
            if not r:
                del rows[k]
                continue
            if j in r:
                clear = False
            if len(r) < n or k in spare:
                spare.discard(k)
                heapq.heappush(short, (len(r), k))
        if clear:
            # column operations now change only the pivot row; remainders
            # smaller than the pivot keep the loop going
            p = abs(p)
            for t, a in list(prow.items()):
                if a % p:
                    prow[t] = a % p
                elif t != j:
                    del prow[t]
                    unlink(t, i)
            if len(prow) > 1:
                prow[j] = p
                spare.discard(i)
                heapq.heappush(short, (len(prow), i))
            else:
                divs.append(p)
                del rows[i]
                unlink(j, i)
    chain = [d for d in divs if d > 1]
    for a in range(len(chain)):
        for b in range(a + 1, len(chain)):
            g = math.gcd(chain[a], chain[b])
            chain[a], chain[b] = g, chain[a] // g * chain[b]
    return ((1,) * (len(divs) - len(chain)) + tuple(chain)
            + (0,) * (size - len(divs)))


def int_row_kernel(mat):
    """Basis (list of rows) of {x in Z^r : x * mat = 0}: the transform
    rows whose Hermite row is zero."""
    return [t for h, t in hnf_transform(mat) if not any(h)]


def mod_row_kernel(mat, m):
    """Generators of the lattice {x in Z^r : x * mat = 0 mod m}; for m > 0
    the lattice contains m*Z^r.  mat is r x c."""
    r = len(mat)
    c = len(mat[0]) if mat else 0
    if m == 0:
        return int_row_kernel(mat)
    stacked = [list(row) for row in mat]
    for j in range(c):
        stacked.append([m if t == j else 0 for t in range(c)])
    ker = int_row_kernel(stacked)
    return [row[:r] for row in ker]


def _rref_mod_p(rows, p, n):
    """Reduced row echelon form over F_p of integer rows of length n, as
    {pivot column: row}: entries in [0, p), 1 at the row's own pivot and 0
    at every other pivot.  Each new row is cleared at the known pivots in
    one pass, since a basis row is zero at the other pivots; a surviving
    row is scaled to a unit pivot and cleared out of the basis rows.

    At p = 2 the rows are packed by pack_f2 and the basis is kept by pivot
    bit: the lowest set bit of a row is its leftmost pivot, and clearing a
    pivot is one XOR.  The rows are unpacked into lists at the end."""
    if p == 2:
        basis = {}
        for x in map(pack_f2, rows):
            for j, b in basis.items():
                if x & j:
                    x ^= b
            if x:
                j = x & -x
                for i, b in basis.items():
                    if b & j:
                        basis[i] = b ^ x
                basis[j] = x
                if len(basis) == n:
                    break
        return {j.bit_length() - 1: [x >> k & 1 for k in range(n)]
                for j, x in basis.items()}
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


def rref_transform(rows, p):
    """_rref_mod_p of the rows with an identity block appended, as (h, t)
    pairs in pivot order with t * rows = h mod p; the counterpart of
    hnf_transform over F_p.  The nonzero h are the reduced echelon rows of
    the span, and the t of the zero h are a basis of the left kernel."""
    k = len(rows)
    n = len(rows[0]) if rows else 0
    basis = _rref_mod_p([list(r) + [1 if j == i else 0 for j in range(k)]
                         for i, r in enumerate(rows)], p, n + k)
    return [(basis[j][:n], basis[j][n:]) for j in sorted(basis)]


# ---------------------------------------------------------------------------
# symplectic spaces


def check_int(x, name):
    """Refuse anything but an int; a bool is an int to Python, but neither
    a genus nor a modulus."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise InvalidInputError(f"{name} must be an int, not {x!r}")


def check_shape(xs, name, size=None):
    """xs as a tuple, refused unless a sequence (of `size` entries)."""
    try:
        xs = tuple(xs)
    except TypeError as exc:
        raise InvalidInputError(f"{name} must be a sequence") from exc
    if size is not None and len(xs) != size:
        raise InvalidInputError(f"{name} wants {size} entries, not {xs!r}")
    return xs


def check_ints(xs, name, size=None):
    """check_shape(xs), each entry refused unless an int (check_int)."""
    xs = check_shape(xs, name, size)
    for x in xs:
        if type(x) is not int:
            check_int(x, name)
    return xs


def check_perm(p, n, name):
    """check_ints(p), refused unless a permutation of range(n)."""
    p = check_ints(p, f"{name} entry")
    if sorted(p) != list(range(n)):
        raise InvalidInputError(f"{name} must permute range({n})")
    return p


def perm_mul(p, q):
    """The product of permutation tuples p and q that applies p first."""
    return tuple(map(q.__getitem__, p))


def perm_inv(p):
    """The inverse of the permutation tuple p."""
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def check_modulus(m, name="modulus", over_z=True):
    """The one check of a modulus at a public entry point: an int that is
    at least 2, or 0 (working over Z) where over_z allows it."""
    check_int(m, name)
    if m < 2 and not (over_z and m == 0):
        raise InvalidInputError(
            f"{name} must be {'0 or ' if over_z else ''}at least 2")


class SympSpace:
    """H = (Z/m)^(2g) with the standard symplectic pairing; m = 0 means Z."""

    def __init__(self, g: int, m: int):
        check_int(g, "genus")
        check_modulus(m)
        if g < 0:
            raise InvalidInputError("genus must be nonnegative")
        self.g = g
        self.m = m
        self.dim = 2 * g
        # prime moduli canonicalize subgroups by echelon form over F_m
        self.prime = m > 1 and all(m % q for q in range(2, math.isqrt(m) + 1))
        # the rows m*e_j that every preimage lattice contains (none over Z)
        self._m_rows = tuple(tuple(m if t == j else 0 for t in range(self.dim))
                             for j in range(self.dim)) if m else ()
        J = [[0] * self.dim for _ in range(self.dim)]
        for i in range(g):
            J[2 * i][2 * i + 1] = 1
            J[2 * i + 1][2 * i] = -1
        self.J = J
        # J[k][k ^ 1] = _sign[k]: +1 on a_i, -1 on b_i; all else is zero
        self._sign = tuple(1 - 2 * (k & 1) for k in range(self.dim))
        # the one instance of each lattice that subgroup() returns, by
        # lattice and by the generator rows that reached it; span() results
        # by the tuple of subgroups, cokernel_invariants() and solver()
        # results by the value of their arguments
        self._subgroups = {}
        self._spans = {}
        self._cokernels = {}
        self._solvers = {}

    # -- vectors

    def reduce(self, vec):
        if len(vec) != self.dim:
            raise InvalidInputError("vector has wrong length")
        m = self.m
        if m == 0:
            return tuple(int(x) for x in vec)
        if {*map(type, vec)} == {int}:  # exact ints need no int()
            return tuple([x % m for x in vec])
        return tuple(map(m.__rmod__, map(int, vec)))

    def zero(self):
        return (0,) * self.dim

    def sign_normal(self, vec):
        """vec reduced and taken modulo sign: the lesser of vec and -vec."""
        return _sign_normal(self.reduce(vec), self.m)

    def basis_a(self, i):
        v = [0] * self.dim
        v[2 * (i - 1)] = 1
        return tuple(v)

    def basis_b(self, i):
        v = [0] * self.dim
        v[2 * (i - 1) + 1] = 1
        return tuple(v)

    def pairing(self, x, y):
        sign = self._sign
        s = sum(sign[k] * x[k] * y[k ^ 1] for k in range(self.dim))
        return s % self.m if self.m else s

    # -- matrices

    def reduce_matrix(self, F):
        return tuple(self.reduce(row) for row in F)

    def identity_matrix(self):
        return self.reduce_matrix(mat_identity(self.dim))

    def mat_apply(self, x, F):
        return self.reduce(vec_mat(x, F))

    def mat_mul(self, F, G):
        return self.reduce_matrix(mat_mul(F, G))

    def is_symplectic(self, F) -> bool:
        """F J F^T = J, checked as the row pairings <F_i, F_j> = J_ij for
        i <= j (both sides are antisymmetric)."""
        n, m, J, sign = self.dim, self.m, self.J, self._sign
        for i in range(n):
            x = F[i]
            # the nonzero entries of x J: (x J)_k = -sign[k] * x[k ^ 1]
            xJ = [(k, -sign[k] * x[k ^ 1]) for k in range(n) if x[k ^ 1]]
            for j in range(i, n):
                y = F[j]
                d = sum(c * y[k] for k, c in xJ) - J[i][j]
                if (d % m if m else d) != 0:
                    return False
        return True

    def symplectic_inverse(self, F):
        """F^-1 = -J F^T J for a symplectic F (not checked here), read off
        F by index and sign: entry (i, j) is sign[i] sign[j] F[j ^ 1][i ^ 1].
        """
        n, sign = self.dim, self._sign
        return self.reduce_matrix(
            [[sign[i] * sign[j] * F[j ^ 1][i ^ 1] for j in range(n)]
             for i in range(n)])

    def transvection(self, v):
        """Matrix of x -> x + <x, v> v."""
        v = self.reduce(v)
        n, sign = self.dim, self._sign
        Jv = [sign[i] * v[i ^ 1] for i in range(n)]
        F = [[(1 if i == j else 0) + Jv[i] * v[j] for j in range(n)]
             for i in range(n)]
        return self.reduce_matrix(F)

    def inverse_transvection(self, v):
        """Matrix of x -> x - <x, v> v; this is what a twist along a curve
        of class v induces under the conventions used by the surface layer."""
        return self.symplectic_inverse(self.transvection(v))

    def chain_vectors(self):
        """2g+1 vectors (2 when g = 1) whose transvections generate the full
        symplectic group mod m: a_1, b_1, a_1+a_2, b_2, ..., plus a_g."""
        vs = []
        if self.g >= 1:
            vs = [self.basis_a(1), self.basis_b(1)]
            for i in range(1, self.g):
                va = tuple(x + y for x, y in
                           zip(self.basis_a(i), self.basis_a(i + 1)))
                vs.append(self.reduce(va))
                vs.append(self.basis_b(i + 1))
            if self.g >= 2:
                vs.append(self.basis_a(self.g))
        return vs

    def sp_closure(self, gens, cap=4_000_000):
        """All products of the given matrices: the orbit of the identity
        under right multiplication.  Only sensible for m > 0 and
        desk-scale groups."""
        if self.m == 0:
            raise InvalidInputError("cannot enumerate a group over Z")
        check_int(cap, "cap")
        gens = [checked_matrix(self.g, self.m, tuple(map(tuple, F)))
                for F in gens]
        if any(c.inverse is None for c in gens):
            raise InvalidInputError("generator is not symplectic")
        res = orbit_enumerate(self.identity_matrix(), [c.rows for c in gens],
                              lambda G, M: self.mat_mul(M, G), cap=cap)
        return frozenset(res.elements)

    def lattice(self, rows):
        """The Hermite form of the preimage lattice span(rows) + m*Z^n of
        the subgroup the rows generate, as a tuple of row tuples: the key
        of that subgroup.  At prime m row j is the echelon row over F_m
        with pivot j or m*e_j (see SympSubgroup), otherwise hnf of the rows
        and the m*e_j.  Rows that are not vectors of ints raise
        InvalidInputError."""
        n = self.dim
        rows = [check_ints(r, "subgroup entry", n) for r in rows]
        if self.prime:
            lattice = list(self._m_rows)
            for j, v in _rref_mod_p(rows, self.m, n).items():
                lattice[j] = tuple(v)
            return tuple(lattice)
        return tuple(map(tuple, hnf(rows + list(self._m_rows))))

    def subgroup(self, gens):
        """The SympSubgroup generated by gens, interned on the space: one
        instance per lattice.  The lattice of a generator row list, as
        lists or tuples, is computed once; a SympSubgroup is constructed
        only for a lattice the space has not seen, and one table keeps the
        instance under its lattice and under every row list that reached
        it.  So the Smith form at composite m, and every answer a subgroup
        keeps (see SympSubgroup), is computed once per lattice.  The rows
        are read once into the key, so a one-shot iterable is not consumed
        twice.  Unhashable rows are constructed directly, and rows that
        raise store nothing.  Generators that are not a sequence of rows
        raise InvalidInputError."""
        try:
            rows = tuple(map(tuple, gens))
        except TypeError as exc:
            raise InvalidInputError(
                "subgroup generators must be a sequence of rows") from exc
        table = self._subgroups
        try:
            sub = table.get(rows)
        except TypeError:  # an entry that is itself unhashable
            return SympSubgroup(self, rows)
        if sub is None:
            lattice = self.lattice(rows)
            sub = table.get(lattice)
            if sub is None:
                sub = table[lattice] = SympSubgroup(self, rows, lattice)
            table[rows] = sub
        return sub

    def span(self, subs):
        """The subgroup that the subgroups subs generate together, kept on
        the space by the tuple of subs."""
        subs = tuple(subs)
        sub = self._spans.get(subs)
        if sub is None:
            sub = self._spans[subs] = self.subgroup(
                [x for s in subs for x in s.canonical_gens()])
        return sub

    def row_kernel(self, mat):
        """Generators of {x : x * mat = 0 mod m} for a matrix with r rows:
        a basis over F_m for prime m, else the lattice of mod_row_kernel.
        Either way they generate the same subgroup of (Z/m)^r."""
        if self.prime:
            return [t for h, t in rref_transform(mat, self.m) if not any(h)]
        return mod_row_kernel(mat, self.m)

    def cokernel_invariants(self, rows, width):
        """The invariant factors of (Z/m)^width / span(rows), ascending in
        divisibility like SympSubgroup.invariants, with one 0 per free
        rank over Z: (m,) * (width - rank) at prime m, with the rank of the
        echelon form over F_m; the divisors > 1 of the Smith diagonal of
        the rows and the m*e_j at composite m; over Z, the torsion divisors
        of the rows followed by the zeros.  Kept on the space by the value
        of (rows, width)."""
        key = (tuple(map(tuple, rows)), width)
        if key in self._cokernels:
            return self._cokernels[key]
        m = self.m
        if self.prime:
            invs = (m,) * (width - len(_rref_mod_p(rows, m, width)))
        else:
            mat = [list(r) for r in rows]
            if m:
                mat += [[m if t == j else 0 for t in range(width)]
                        for j in range(width)]
            divs = [d for d in snf_diagonal(mat) if d]
            invs = tuple(d for d in divs if d > 1) + (0,) * (width - len(divs))
        self._cokernels[key] = invs
        return invs

    def solver(self, rows, width):
        """x -> a tuple c with c * rows = x mod m, or None when x is outside
        the span, for vectors of length width and rows that may be none or
        dependent; the module docstring gives the two paths.  Kept on the
        space by the value of (rows, width)."""
        key = (tuple(map(tuple, rows)), width)
        if key not in self._solvers:
            self._solvers[key] = self._solver(rows, width)
        return self._solvers[key]

    def _solver(self, rows, width):
        m, k = self.m, len(rows)
        if self.prime:
            basis = [(next(j for j, a in enumerate(h) if a), h, t)
                     for h, t in rref_transform(rows, m) if any(h)]

            def coords(x):
                rest = [a % m for a in x]
                c = [0] * k
                for j, h, t in basis:
                    q = rest[j]
                    if q:
                        rest = [(a - q * b) % m for a, b in zip(rest, h)]
                        c = [(a + q * b) % m for a, b in zip(c, t)]
                return None if any(rest) else tuple(c)
            return coords
        mod = [[m if t == j else 0 for t in range(width)]
               for j in range(width)] if m else []
        solve = _int_coords(hnf_transform([list(r) for r in rows] + mod))

        def coords(x):
            c = solve(x)
            return None if c is None else c[:k]
        return coords


class SympSubgroup:
    """Subgroup of (Z/m)^n given by generators, canonicalized through the
    Hermite form of its preimage lattice in Z^n.  The lattice is a tuple of
    row tuples and is also the key.

    For prime m the generators go through _rref_mod_p instead: row j of
    the lattice is the echelon row with pivot j, entries in [0, m), or
    m*e_j where no row has pivot j.  That is the same Hermite form: the
    rows are upper triangular with pivots 1 or m, the entries above a pivot
    1 are 0 and those above a pivot m lie in [0, m).  So keys and
    encodings do not depend on the path taken.

    At m = 2 the echelon rows are also kept packed, on first use, as
    (pivot bit, row mask) pairs with bit k for coordinate k: f2_rows and
    contains_f2 decide membership with one XOR per pivot.

    SympSpace.subgroup returns the space's one instance per lattice, and
    apply returns such instances, so a subgroup is a value: nothing may
    change it after construction except its lazy caches (canonical
    generators, packed rows, radical, relations, cyclic generator,
    the splitting test, solver, hash, and images, coordinates and
    orthogonality by argument), which the lattice determines, so the
    instances of a lattice may share them.  contains and coords ask the
    solver."""

    def __init__(self, space: SympSpace, gens, lattice=None):
        """The subgroup gens generate; lattice, when given, is
        space.lattice(gens), which SympSpace.subgroup has computed to look
        the subgroup up."""
        self.space = space
        n = space.dim
        m = space.m
        self.lattice = space.lattice(gens) if lattice is None else lattice
        # filled on first use by canonical_gens(), f2_rows(), radical(),
        # relations(), generator(), splits_off_radical() and solver(); the
        # prime path knows the generators at once
        self._gens = None
        self._f2 = None
        self._radical = None
        self._relations = None
        self._generator = None
        self._splits = None
        self._solver = None
        self._hash = None
        # apply() images by matrix, coords() by vector, orthogonal() by
        # subgroup
        self._images = {}
        self._coords = {}
        self._orthogonal = {}
        if space.prime:
            # row j is the echelon row with pivot j, 1 there, or m*e_j
            self._gens = tuple(r for j, r in enumerate(self.lattice)
                               if r[j] == 1)
            rank = len(self._gens)
            self.lattice_divisors = (1,) * rank + (m,) * (n - rank)
            self.invariants = (m,) * rank
            self.rank = rank
            self.order = m ** rank
            return
        if m:
            divs = snf_diagonal(self.lattice)
            self.lattice_divisors = tuple(divs)
            inv = [m // d for d in divs if m // d > 1]
            self.invariants = tuple(reversed(inv))
            self.rank = len(self.invariants)
            self.order = 1
            for q in self.invariants:
                self.order *= q
        else:
            divs = tuple(d for d in snf_diagonal(self.lattice) if d)
            self.lattice_divisors = divs
            self.rank = len(self.lattice)
            self.invariants = (0,) * self.rank
            self.order = 1 if self.rank == 0 else None

    def key(self):
        return self.lattice

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, SympSubgroup)
                and self.space.g == other.space.g
                and self.space.m == other.space.m
                and self.key() == other.key())

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.space.g, self.space.m, self.lattice))
        return self._hash

    def canonical_gens(self):
        """Generators read off the lattice Hermite form (lattice rows that
        survive reduction mod m), as a fresh list."""
        if self._gens is None:
            self._gens = tuple(v for v in map(self.space.reduce, self.lattice)
                               if any(v))
        return list(self._gens)

    def contains(self, vec) -> bool:
        """Whether vec mod m lies in the subgroup, read off solver()."""
        return self.solver()(self.space.reduce(vec)) is not None

    def f2_rows(self):
        """The echelon rows packed by pack_f2, as (pivot bit, row mask)
        pairs; m = 2 only.  Each row is 1 at its own pivot and 0 at every
        other pivot."""
        if self._f2 is None:
            if self.space.m != 2:
                raise InvalidInputError("packed rows need modulus 2")
            self._f2 = tuple((x & -x, x) for x in map(pack_f2, self._gens))
        return self._f2

    def contains_f2(self, x) -> bool:
        """Membership of a packed vector, m = 2 only: clear every pivot bit
        of x with its row; x lies in the subgroup iff nothing is left."""
        for p, r in self.f2_rows():
            if x & p:
                x ^= r
        return not x

    def is_cyclic(self) -> bool:
        return self.rank <= 1

    def is_primitive(self) -> bool:
        """Direct-summand test via unitary lattice divisors."""
        m = self.space.m
        if m == 0:
            return all(d == 1 for d in self.lattice_divisors)
        return all(math.gcd(d, m // d) == 1 for d in self.lattice_divisors)

    def corank(self):
        """The rank of H / self when that quotient is free, else None, read
        off the lattice divisors."""
        return _free_rank(self.lattice_divisors, self.space.m, self.space.dim)

    def quotient_rank(self, inner: "SympSubgroup"):
        """The rank of self / inner when inner lies in self and the
        quotient is free, else None.  Over F_p every quotient is free of
        rank self.rank - inner.rank; otherwise it is read off the Smith
        divisors of the coordinates of inner's Hermite rows over self's."""
        if self.space.prime:
            if not all(map(self.contains, inner.canonical_gens())):
                return None
            return self.rank - inner.rank
        solve = _int_coords(hnf_transform(self.lattice))
        coords = []
        for row in inner.lattice:
            c = solve(row)
            if c is None:
                return None
            coords.append(c)
        divs = [d for d in snf_diagonal(coords) if d]
        return _free_rank(divs, self.space.m, len(self.lattice))

    def gram(self):
        """The pairings <x, y> of the canonical generators, as rows."""
        gens = self.canonical_gens()
        pairing = self.space.pairing
        return [[pairing(x, y) for y in gens] for x in gens]

    def orthogonal(self, other: "SympSubgroup") -> bool:
        """Whether every element of self pairs to zero with every element
        of other, memoized on both by the other: the pairing is
        antisymmetric, so the answer is the same both ways."""
        ok = self._orthogonal.get(other)
        if ok is None:
            pairing = self.space.pairing
            theirs = other.canonical_gens()
            ok = all(pairing(x, y) == 0 for x in self.canonical_gens()
                     for y in theirs)
            self._orthogonal[other] = other._orthogonal[self] = ok
        return ok

    def is_isotropic(self) -> bool:
        return self.orthogonal(self)

    def perp(self):
        """{x : <x, s> = 0 for all s in the subgroup}."""
        sp = self.space
        gens = self.canonical_gens()
        sign = sp._sign
        cols = [[sign[i] * g[i ^ 1] for g in gens] for i in range(sp.dim)]
        return sp.subgroup(sp.row_kernel(cols))

    def _same_space(self, other):
        if self.space is not other.space and \
                (self.space.g, self.space.m) != (other.space.g, other.space.m):
            raise InvalidInputError("subgroups live in different spaces")

    def intersection(self, other: "SympSubgroup"):
        self._same_space(other)
        A = self.lattice
        B = other.lattice
        if not A or not B:
            return self.space.subgroup([])
        n = self.space.dim
        stacked = [list(r) for r in A] + [[-x for x in r] for r in B]
        ker = int_row_kernel(stacked)
        gens = []
        for row in ker:
            x = row[:len(A)]
            v = [sum(x[i] * A[i][j] for i in range(len(A))) for j in range(n)]
            gens.append(v)
        return self.space.subgroup(gens)

    def add(self, other: "SympSubgroup"):
        self._same_space(other)
        return self.space.subgroup(self.canonical_gens()
                                   + other.canonical_gens())

    def radical(self):
        """Subgroup pairing trivially with everything in the subgroup: the
        combinations x * gens of the canonical generators with x in the
        kernel of the Gram matrix mod m."""
        if self._radical is None:
            gens = self.canonical_gens()
            ker = self.space.row_kernel(self.gram())
            self._radical = self.space.subgroup([vec_mat(x, gens)
                                                 for x in ker])
        return self._radical

    def solver(self):
        """space.solver of the canonical generators: coordinates of a
        member over them, kept on the instance like the other answers the
        lattice fixes."""
        if self._solver is None:
            self._solver = self.space.solver(self.canonical_gens(),
                                             self.space.dim)
        return self._solver

    def coords(self, x):
        """solver()(x), memoized by the vector x."""
        if x not in self._coords:
            self._coords[x] = self.solver()(x)
        return self._coords[x]

    def relations(self):
        """Generators of {c : c * canonical_gens() = 0 mod m}, the
        row_kernel of the generators, as a tuple: none at prime m, where
        they are echelon rows."""
        if self._relations is None:
            self._relations = () if self.space.prime else tuple(
                map(tuple, self.space.row_kernel(self.canonical_gens())))
        return self._relations

    def generator(self):
        """An element generating self when it is cyclic (zero if trivial).
        The canonical generators of <(3, 2)> mod 6 are (3, 0) and (0, 2),
        so they are merged: x + j*g generates <x, g> for some j."""
        if self._generator is None:
            space = self.space
            x, *rest = self.canonical_gens() or [space.zero()]
            for g in rest:
                want = space.subgroup([x, g])
                x = next(y for y in (space.reduce([a + j * b
                                                   for a, b in zip(x, g)])
                                     for j in range(space.m))
                         if space.subgroup([y]) == want)
            self._generator = x
        return self._generator

    def splits_off_radical(self) -> bool:
        """Whether the pairing is perfect on self / radical, so that self is
        its radical plus a nondegenerate complement: every Smith divisor d
        of the Gram matrix has gcd(d, m) in {1, m} (over Z, gcd(d, 0) = d,
        so the form on the quotient is unimodular).  At prime m the test
        always holds, since gcd(d, p) is 1 or p for every d."""
        if self._splits is None:
            m = self.space.m
            self._splits = self.space.prime or all(
                math.gcd(d, m) in (1, m) for d in snf_diagonal(self.gram()))
        return self._splits

    def apply(self, F):
        """Image subgroup under x -> x*F; the images go in unreduced,
        since construction reduces them.  The image is the space's
        instance for its lattice, memoized on this instance by the value
        of F: the space holds one instance per lattice, so equal subgroups
        moved by equal matrices share one image."""
        try:
            img = self._images.get(F)
        except TypeError:  # F given with list rows
            return self.apply(tuple(map(tuple, F)))
        if img is None:
            img = self._images[F] = self.space.subgroup(
                [vec_mat(v, F) for v in self.canonical_gens()])
        return img


# ---------------------------------------------------------------------------
# checked matrices


class CheckedMatrix:
    """A matrix over (Z/m)^2g with what checking it found: its reduced
    rows, its inverse when it is symplectic (None when it is not) and, at
    m = 2, its rows packed by pack_f2 (None otherwise).  checked_matrix
    makes one per value.

    It answers the two questions an action check asks of a symplectic
    matrix F: whether F maps one subgroup onto another (maps_onto, on
    packed rows at m = 2 and on integer entries otherwise), and the
    sign-normal image of a frame (frame_image), which transport stores
    too, memoized on the record: a frame is moved by F once however many
    values and checks carry it."""

    __slots__ = ("m", "rows", "inverse", "packed", "_frames")

    def __init__(self, m, rows, inverse, packed):
        self.m = m
        self.rows = rows
        self.inverse = inverse
        self.packed = packed
        self._frames = {}  # frame_image results, by frame

    def frame_image(self, f):
        """The lesser of f*F and -f*F, reduced mod m, memoized by f."""
        img = self._frames.get(f)
        if img is None:
            img = self._frames[f] = _sign_normal(vec_mat(f, self.rows),
                                                 self.m)
        return img

    def maps_onto(self, A: SympSubgroup, B: SympSubgroup) -> bool:
        """Whether A * F = B, decided by memberships instead of a fresh
        Hermite form.  At m = 2 each image of A's packed echelon rows is an
        XOR of rows of F, and B clears it by its own packed rows; otherwise
        the images are dense vec_mat rows, left unreduced since contains
        reduces its input.  Over Z/m an invertible F maps A onto a group of
        A's order, so A * F <= B and equal orders settle it; over Z the
        images of B under the inverse are checked too."""
        if self.packed is not None:
            return A.order == B.order and all(
                B.contains_f2(f2_image(x, self.packed))
                for _, x in A.f2_rows())
        if not all(B.contains(vec_mat(x, self.rows))
                   for x in A.canonical_gens()):
            return False
        if self.m:
            return A.order == B.order
        return all(A.contains(vec_mat(y, self.inverse))
                   for y in B.canonical_gens())


@lru_cache(maxsize=128)
def checked_matrix(g, m, F):
    """The CheckedMatrix of F, a tuple of row tuples over (Z/m)^2g; its
    inverse passes the self-check F * F^-1 = 1.

    Memoized on the value (g, m, F): a matrix is checked, reduced,
    inverted and packed once per process, not once per cover, lift or
    transported value, and at most 128 values are kept."""
    space = SympSpace(g, m)
    if len(F) != space.dim:
        raise InvalidInputError("matrix has wrong size")
    rows = space.reduce_matrix(F)
    if rows == F and all(type(a) is int for row in F for a in row):
        rows = F  # already reduced: the record shares the key's rows
    inverse = None
    if space.is_symplectic(rows):
        inverse = space.symplectic_inverse(rows)
        if space.mat_mul(rows, inverse) != space.identity_matrix():
            raise LevelNerveError("symplectic self-check failed: inverse")
    return CheckedMatrix(m, rows, inverse,
                         tuple(map(pack_f2, rows)) if m == 2 else None)


def tree_walk(moves, root, step):
    """Values along the breadth-first spanning forest of a graph on
    range(len(moves)), moves[x][j] the end of edge (x, j): vertex 0, then
    each vertex not yet reached, roots a tree with value root, and the
    edge (x, j, y) that first reaches y sets values[y] = step(values[x], x,
    j).  Returns the values and the other edges in the order the search
    meets them, that of x and then j on a graph numbered in discovery
    order (an OrbitResult.moves, a transposed DeckGroup.act).  An edge
    that leaves the graph raises LevelNerveError."""
    n = len(moves)
    values, other, reached = [root] * n, [], [False] * n
    for r in range(n):
        if reached[r]:
            continue
        reached[r] = True
        queue = [r]
        for x in queue:  # grows while the loop runs
            for j, y in enumerate(moves[x]):
                if not 0 <= y < n:
                    raise LevelNerveError(f"edge ({x}, {j}) leaves the graph")
                if reached[y]:
                    other.append((x, j, y))
                else:
                    reached[y] = True
                    values[y] = step(values[x], x, j)
                    queue.append(y)
    return values, other


def cayley_fill(identity, images, act, mul):
    """The value of each element of a group whose Cayley graph, numbered
    in discovery order from the identity 0, has act[j][a] = a * image j:
    value[act[j][a]] = mul(value[a], images[j]) along the tree_walk of
    the graph, then formed once on every other edge as well, where it must
    agree; None when it does not (the images break a relation of the
    group)."""
    values, other = tree_walk(tuple(zip(*act)), identity,
                              lambda v, a, j: mul(v, images[j]))
    agree = all(mul(values[a], images[j]) == values[y] for a, j, y in other)
    return tuple(values) if agree else None


@lru_cache(maxsize=16)
def deck_matrices(g, m, images, act):
    """The reduced matrices over (Z/m)^2g of a deck group, cayley_fill
    from those of its generator images (on rows packed by pack_f2 at
    m = 2), or None.  Memoized on the value like checked_matrix, so a
    cover's DeckHomology and its lifts, which share them, pay once."""
    if m != 2:
        space = SympSpace(g, m)
        return cayley_fill(space.identity_matrix(), images, act, space.mat_mul)
    bits = range(2 * g)
    packed = cayley_fill(tuple(1 << k for k in bits),
                         [tuple(map(pack_f2, M)) for M in images], act,
                         lambda A, B: tuple(f2_image(x, B) for x in A))
    if packed is None:
        return None
    return tuple(tuple(tuple(x >> k & 1 for k in bits) for x in A)
                 for A in packed)


# ---------------------------------------------------------------------------
# Smith form, Sp generators and orbit enumeration


def smith_normal_form(M, width=None):
    """The Smith divisors of a matrix of ints: M is a rectangular list of
    rows, or, with width given, a list of {column: entry} rows over that
    many columns.  snf_sparse runs on the rows, each checked and read
    sparse in one pass, so that M is never copied dense.  An empty matrix
    yields ()."""
    sparse = width is not None
    if sparse:
        check_int(width, "matrix width")
    rows = []
    for r in M:
        row, n = {}, 0
        for j, x in (r.items() if sparse else enumerate(r)):
            if type(x) is not int:
                check_int(x, "matrix entry")
            if x:
                row[j] = x
            n += 1
        if not sparse:
            width = n if width is None else width
            if n != width:
                raise InvalidInputError("ragged matrix")
        elif any(type(j) is not int or not 0 <= j < width for j in row):
            raise InvalidInputError(f"a column of {r!r} is outside the matrix")
        rows.append(row)
    return snf_sparse(rows, width or 0)


def sp_group(space: SympSpace) -> tuple:
    """Generators x -> x + <x,v>v over the chain vectors; they generate the
    full symplectic group over Z/m for every m >= 2 (and Sp_2g(Z) over Z)."""
    return tuple(space.transvection(v) for v in space.chain_vectors())


class OrbitResult(namedtuple("OrbitResult", "elements keys words moves")):
    """Orbit in breadth-first discovery order, the key of each element, the
    transversal word that reaches it from the seed, and the Schreier graph
    of the orbit, all numbered alike: elements[0] is the seed, and the
    words come in shortlex order (len(w), w).

    A word is a tuple of generator indices.  moves[i][j] is the index of
    generators[j] applied to elements[i], so values along the tree are
    read off moves (tree_walk), with no further action or key, and so are
    the stabilizer generators (schreier_edges)."""

    __slots__ = ()


def orbit_enumerate(seed, generators, action, key=None, cap=200_000):
    """Breadth-first orbit of `seed` under `action(gen, x)`.

    `key` maps an element to its hashable canonical encoding (default: the
    element itself).  Elements are numbered in the order the search first
    reaches them, expanding each in turn and trying the generators in
    order, so the seed is 0 and the transversal words increase in shortlex
    order.  Every edge is recorded in moves as the number of its target.
    Exceeding `cap` raises ResourceLimitError with the partial count."""
    generators = list(generators)
    elements, words = [seed], [()]
    # number of each key; its insertion order is the order of discovery
    num = {seed if key is None else key(seed): 0}
    moves = []
    for x, wx in zip(elements, words):  # both grow while the loop runs
        row = []
        for i, g in enumerate(generators):
            y = action(g, x)
            ky = y if key is None else key(y)
            t = num.get(ky)
            if t is None:
                if len(elements) >= cap:
                    raise ResourceLimitError(
                        f"orbit exceeded cap {cap} "
                        f"(partial count {len(elements)})")
                t = num[ky] = len(elements)
                elements.append(y)
                words.append(wx + (i,))
            row.append(t)
        moves.append(tuple(row))
    return OrbitResult(tuple(elements), tuple(num), tuple(words),
                       tuple(moves))


def schreier_edges(res: OrbitResult):
    """The non-tree edges (x, j, y) of the orbit's Schreier graph, y =
    moves[x][j], in the order of x and then of j (tree_walk).  Each gives
    the Schreier generator t_x * g_j * t_y^-1 of the seed's stabilizer
    (Schreier's lemma), and together they generate it."""
    return tree_walk(res.moves, None, lambda v, x, j: None)[1]


def stabilizer_words(res: OrbitResult):
    """The Schreier generators of schreier_edges as words, in its order.
    In a word, a negative entry ~i denotes the inverse of generator i.  The
    words are pairwise distinct and nonempty, since the nonnegative prefix
    of the word of edge (x, j, y) is t_x * g_j."""
    words = res.words
    for x, j, y in schreier_edges(res):
        yield words[x] + (j,) + tuple(~a for a in reversed(words[y]))
