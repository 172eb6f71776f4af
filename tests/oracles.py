"""Reference routines that only the tests use.

Each checks a package result by a separate route: contracting an edge
undoes a degeneration, the module-map report reads the gluing condition
off a plain Smith form, and the catalog lookup finds a representative by
its dual graph."""

from levelnerve.catalog import multicurve_catalog
from levelnerve.errors import InvalidInputError, UnsupportedError
from levelnerve.stablegraph import StableGraph
from levelnerve.symplectic import hnf, mod_row_kernel, snf_diagonal


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
