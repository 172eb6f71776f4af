"""Integral homology and the edge-path group of small simplicial sets:
spheres, a torus and the projective plane, with every boundary matrix
checked against sympy and its Smith divisors computed once per complex,
and of 24 x 24 torus and Klein-bottle grids; generator elimination against
the re-sorting reference on drawn relator lists.
Also curve deletion on catalog representatives, a bond that validate
decides without enumerating generator choices, the offender labels
cross_validate reports and its exhaustive oracle at (2,0,2), the refusals
of malformed face tables, and the error assembly raises for a face missing
from the rank below."""

import functools
from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from levelnerve import complexes
from levelnerve.catalog import _audit, multicurve_catalog
from levelnerve.complexes import (FinSimpSet, _assemble, _boundary_rows,
                                  _finite_quotient, _orbit_types, _tietze,
                                  _types, build_abelian_nerve, cross_validate,
                                  delete_curves, homology, pi1_report)
from levelnerve.covers import homology_cover, mcg_action_on_cover
from levelnerve.decomp import (FramedDecomposition, canonical_form,
                               canonical_serial, induced_from_lift,
                               induced_from_multicurve, sp_action, validate)
from levelnerve.errors import InvalidInputError, LevelNerveError
from levelnerve.surface import twist_automorphisms
from levelnerve.symplectic import (SympSpace, orbit_enumerate, snf_sparse,
                                   sp_group)
from oracles import tietze_resorting


def complex_from_facets(facets):
    """The simplicial closure of `facets` (vertex tuples) as a FinSimpSet:
    a simplex is encoded by its sorted vertices as bytes, one byte per
    vertex while every label is below 256 and two big-endian bytes
    otherwise, each rank is ordered by encoding, and the l-th face omits
    the l-th vertex."""
    top = max(len(f) for f in facets) - 1
    simplices = [set() for _ in range(top + 1)]
    for f in facets:
        f = tuple(sorted(f))
        for k in range(len(f)):
            simplices[k].update(combinations(f, k + 1))
    blocks = [sorted(s) for s in simplices]
    index = [{s: i for i, s in enumerate(b)} for b in blocks]
    faces = [[()] * len(blocks[0])]
    for k in range(1, top + 1):
        faces.append([tuple(index[k - 1][s[:l] + s[l + 1:]]
                            for l in range(k + 1)) for s in blocks[k]])
    width = 1 if max(blocks[0])[0] < 256 else 2

    def encode(s):
        return b"".join(v.to_bytes(width, "big") for v in s)

    return FinSimpSet([[encode(s) for s in b] for b in blocks], faces)


def grid(n, flip):
    """An n x n grid of squares, each cut into two triangles, with its
    sides glued into a torus, or into a Klein bottle when flip reverses
    the rows across the seam j = n ~ j = 0."""
    def v(i, j):
        if j == n:
            i, j = (-i if flip else i), 0
        return i % n * n + j

    return [f for i in range(n) for j in range(n)
            for f in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                      (v(i, j), v(i, j + 1), v(i + 1, j + 1)))]


TETRAHEDRON_BOUNDARY = list(combinations(range(4), 3))
SOLID_TETRAHEDRON = [tuple(range(4))]
TWO_CIRCLES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
# Moebius' 7-vertex torus and the 6-vertex (hemi-icosahedral) RP^2
TORUS = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + \
        [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
       (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]

CASES = [
    (TETRAHEDRON_BOUNDARY, [(0,), (), (0,)]),
    (SOLID_TETRAHEDRON, [(0,), (), (), ()]),
    (TWO_CIRCLES, [(0, 0), (0, 0)]),
    (TORUS, [(0,), (0, 0), (0,)]),
    (RP2, [(0,), (2,), ()]),
]
NAMES = ["sphere", "simplex", "two-circles", "torus", "rp2"]


def sympy_diagonal(M):
    r, c = len(M), len(M[0]) if M else 0
    S = sympy_snf(sympy.Matrix(r, c, [x for row in M for x in row]),
                  domain=sympy.ZZ)
    return tuple(abs(S[i, i]) for i in range(min(r, c)))


@pytest.mark.parametrize("facets, want", CASES, ids=NAMES)
def test_homology_of_known_complexes(facets, want):
    X = complex_from_facets(facets)
    assert [homology(X, q) for q in range(X.top_rank + 1)] == want


@pytest.mark.parametrize("facets", [f for f, _ in CASES], ids=NAMES)
def test_boundary_divisors_match_sympy(facets):
    X = complex_from_facets(facets)
    for k in range(1, X.top_rank + 1):
        rows, width = _boundary_rows(X, k), X.size(k - 1)
        M = [[r.get(j, 0) for j in range(width)] for r in rows]
        assert snf_sparse(rows, width) == sympy_diagonal(M)


@pytest.mark.parametrize("facets", [f for f, _ in CASES], ids=NAMES)
def test_euler_characteristic(facets):
    X = complex_from_facets(facets)
    betti = [homology(X, q).count(0) for q in range(X.top_rank + 1)]
    assert sum((-1) ** q * b for q, b in enumerate(betti)) == \
        sum((-1) ** k * X.size(k) for k in range(X.top_rank + 1))


def test_boundary_divisors_computed_once_per_complex(monkeypatch):
    import levelnerve.complexes as complexes
    calls = []

    def counted(rows, width):
        calls.append(len(rows))
        return snf_sparse(rows, width)

    monkeypatch.setattr(complexes, "snf_sparse", counted)
    want = CASES[NAMES.index("torus")][1]
    for _ in range(2):
        # an equal complex built afresh shares nothing with the last one
        X = complex_from_facets(TORUS)
        calls.clear()
        assert [homology(X, q) for q in range(X.top_rank + 1)] == want
        assert calls == [X.size(1), X.size(2)]
        assert [homology(X, q) for q in range(X.top_rank + 1)] == want
        assert len(calls) == 2


def test_tampered_faces_fail_the_boundary_check():
    # construction checked the simplicial identities; a triangle whose
    # three faces are then set to one edge has boundary e - e + e = e,
    # and its boundary in turn is nonzero
    X = complex_from_facets(TORUS)
    e = X.faces[2][0][0]
    X.faces = X.faces[:2] + (((e, e, e),) + X.faces[2][1:],)
    with pytest.raises(LevelNerveError, match="boundary squares to zero"):
        homology(X, 1)


def test_homology_degree_out_of_range():
    X = complex_from_facets(TETRAHEDRON_BOUNDARY)
    for q in (-1, 3):
        with pytest.raises(InvalidInputError):
            homology(X, q)


@pytest.mark.parametrize("q", [0.0, True, "1"], ids=repr)
def test_homology_degree_must_be_an_int(q):
    # True would read as degree 1: on this nerve that is H_1
    X = build_abelian_nerve(1, 2, 2)
    with pytest.raises(InvalidInputError, match="must be an int"):
        homology(X, q)


@pytest.mark.parametrize("facets", [SOLID_TETRAHEDRON, TETRAHEDRON_BOUNDARY],
                         ids=["simplex", "sphere"])
def test_pi1_simply_connected(facets):
    assert pi1_report(complex_from_facets(facets)).verdict == "trivial"


@pytest.mark.parametrize("facets, ab", [(TORUS, (0, 0)), (RP2, (2,))],
                         ids=["torus", "rp2"])
def test_pi1_abelianization(facets, ab):
    rep = pi1_report(complex_from_facets(facets))
    assert rep.verdict == "nontrivial"
    assert rep.witness == ("abelianization", ab)
    assert rep.abelian_divisors == ab


def test_pi1_per_component():
    rep = pi1_report(complex_from_facets(TWO_CIRCLES))
    assert rep.verdict == "nontrivial"
    assert len(rep.components) == 2
    for sub in rep.components:
        assert sub.witness == ("abelianization", (0,))


def test_tietze_budget_skips_untouched_relations():
    # eliminating x1 rewrites no other relation, so the ten commutators
    # cost nothing and the budget of 20 letters is not spent
    alive, rels, exhausted = _tietze(3, [[1]] + [[2, 3, -2, -3]] * 10,
                                     budget=20)
    assert (alive, exhausted) == ([2, 3], False)
    assert rels == [(2, 3, -2, -3)] * 10


@st.composite
def relator_lists(draw):
    """Up to 12 words of length at most 10 over up to 6 generators, many
    of them repeated or sharing generators."""
    ngen = draw(st.integers(0, 6))
    if not ngen:
        return 0, draw(st.lists(st.just([]), max_size=3))
    letter = st.integers(1, ngen).flatmap(
        lambda x: st.sampled_from([x, -x]))
    words = draw(st.lists(st.lists(letter, max_size=10), max_size=12))
    return ngen, words + draw(st.lists(st.sampled_from(words or [[]]),
                                       max_size=4))


@pytest.mark.parametrize("budget", [200_000, 20, 5])
@given(data=relator_lists())
@example(data=(3, [[1]] + [[2, 3, -2, -3]] * 10))
@example(data=(3, [[1, 2], [1, 2], [1, 3, -1, 2], [2, 2, 3], [1, -3]]))
def test_tietze_matches_the_resorting_reference(budget, data):
    ngen, rels = data
    assert _tietze(ngen, rels, budget) == tietze_resorting(ngen, rels,
                                                           budget)


@pytest.mark.parametrize("flip, want, ab", [
    (False, [(0,), (0, 0), (0,)], (0, 0)),
    (True, [(0,), (2, 0), ()], (2, 0)),
], ids=["torus", "klein"])
def test_invariants_of_a_24_by_24_grid(flip, want, ab):
    X = complex_from_facets(grid(24, flip))
    assert [X.size(k) for k in range(3)] == [576, 1728, 1152]
    assert [homology(X, q) for q in range(3)] == want
    rep = pi1_report(X)
    assert (rep.verdict, rep.witness) == ("nontrivial", ("abelianization", ab))


def test_finite_quotient():
    # <x, y | x^2, y^2, (xy)^3> is S_3; its first quotient in S_3 pins
    # the search order
    assert _finite_quotient([1, 2], [[1, 1], [2, 2], [1, 2, 1, 2, 1, 2]],
                            3) == ((0, 2, 1), (0, 2, 1))
    assert _finite_quotient([1], [[1]], 4) is None
    assert _finite_quotient([1], [[1] * 5], 5) == ((1, 2, 3, 4, 0),)


# -- curve deletion and capped validation


def proper_deletions(g, n):
    for mc in multicurve_catalog(g, n):
        E = len(mc.words)
        for r in range(1, E):
            for drop in combinations(range(E), r):
                yield mc, drop


def test_every_proper_deletion_passes_the_catalog_audit():
    count = 0
    for g, n in ((1, 2), (2, 0), (2, 1)):
        for mc, drop in proper_deletions(g, n):
            sub = delete_curves(mc, set(drop))
            kept = [w for e, w in enumerate(mc.words) if e not in drop]
            assert list(sub.words) == kept
            assert (sub.g, sub.n) == (mc.g, mc.n)
            assert sub.graph.genus() == mc.graph.genus() == g
            assert sub.graph.marks() == mc.graph.marks()
            _audit(sub)
            count += 1
    assert count == 102


@pytest.mark.parametrize("drop", [{"a"}, {1.5}, {True}, {"1"}, {2}, {0, 1}],
                         ids=["str", "float", "bool", "digit", "range",
                              "every"])
def test_deletion_refuses_bad_indices(drop):
    # a str used to raise a bare ValueError, and a float, a bool or a
    # digit string silently deleted curve 1
    mc = next(mc for mc in multicurve_catalog(2, 0) if len(mc.words) == 2)
    with pytest.raises(InvalidInputError):
        delete_curves(mc, drop)


@pytest.mark.parametrize("call", [
    lambda: homology(None, 0),
    lambda: pi1_report(None),
    lambda: cross_validate(None),
], ids=["homology", "pi1", "cross-validate"])
def test_invariants_refuse_what_is_not_a_complex(call):
    # each raised AttributeError
    with pytest.raises(InvalidInputError, match="not a complex"):
        call()


@pytest.mark.parametrize("k", [0.0, 1.0, "0", True])
def test_size_refuses_a_rank_that_is_not_an_int(k):
    # size(0.0) raised TypeError and size(1.0) answered 0 on this rank-0
    # complex
    X = build_abelian_nerve(1, 1, 2)
    assert X.top_rank == 0 and X.size(1) == 0
    with pytest.raises(InvalidInputError):
        X.size(k)


def test_validate_decides_a_bond_with_many_generator_choices():
    # three parallel edges <a1>, <a2>, <a1 + a2> over Z/47 form one bond
    # with 46**3 generator choices; validate decides it without a cap and
    # finds only the frames wrong
    sp = SympSpace(2, 47)
    a1, a2 = sp.basis_a(1), sp.basis_a(2)
    a12 = sp.reduce([x + y for x, y in zip(a1, a2)])
    d = FramedDecomposition(sp, [[a1, a2]] * 2, [[a1], [a2], [a12]],
                            [(0, 1)] * 3, [sp.basis_b(1)] * 3)
    assert validate(d) == ["frame"]


def test_cross_validate_names_violated_conditions():
    # a loop decomposition whose vertex group <b> pairs with its edge
    # group <a> and has no radical: conditions iii and vi both fail
    X = build_abelian_nerve(1, 1, 2)
    sp = X.decomps[0][0].space
    bad = FramedDecomposition(sp, [[sp.basis_b(1)]], [[sp.basis_a(1)]],
                              [(0, 0)], [sp.basis_a(1)], marks=[(1,)], n=1)
    X.decomps = ((bad,) + X.decomps[0][1:],) + X.decomps[1:]
    report = cross_validate(X)
    assert not report["ok"]
    assert [o["detail"] for o in report["offenders"]
            if o["check"] == "validity"] == [["iii", "vi"]]


def test_cross_validate_runs_the_exhaustive_oracle(monkeypatch):
    # at (2,0,2) every orbit matches the exhaustive enumeration of its
    # type; with one vertex decomposition replaced by another of its type,
    # the orbit misses a form and the type is named.  The enumeration is
    # kept for the second call.
    monkeypatch.setattr(complexes, "_brute_type_sets",
                        functools.cache(complexes._brute_type_sets))
    X = build_abelian_nerve(2, 0, 2)
    report = cross_validate(X)
    assert report["ok"]
    brute = [c for c in report["checks"]
             if c["name"] == "exhaustive enumeration matches orbits"]
    assert len(brute) == 1 and brute[0]["ok"]
    key = X.provenance[0][0][0]
    j = next(j for j, (k, _) in enumerate(X.provenance[0]) if j and k == key)
    X.decomps = ((X.decomps[0][j],) + X.decomps[0][1:],) + X.decomps[1:]
    report = cross_validate(X)
    assert not report["ok"]
    assert [o["type"] for o in report["offenders"]
            if o["check"] == "brute"] == [repr(key)]


_TRIANGLE = ([[b"\x00", b"\x01", b"\x02"],
              [b"\x00\x01", b"\x00\x02", b"\x01\x02"],
              [b"\x00\x01\x02"]],
             [[(), (), ()], [(1, 0), (2, 0), (2, 1)], [(2, 1, 0)]])


@pytest.mark.parametrize("args, kwargs, message", [
    (([], []), {}, "at least one rank"),
    ((_TRIANGLE[0], _TRIANGLE[1][:2]), {}, "rank count mismatch"),
    (([[]], [[]]), {}, "empty rank block"),
    (([["0"]], [[()]]), {}, "must be bytes"),
    (([[b"\x01", b"\x00"]], [[(), ()]]), {}, "strictly increasing"),
    (([[b"\x00"]], [[(), ()]]), {}, "face row count mismatch"),
    (([[b"\x00"]], [[(0,)]]), {}, "faceless"),
    ((_TRIANGLE[0][:2], [[(), (), ()], [(1,), (2, 0), (2, 1)]]), {},
     "wrong arity"),
    ((_TRIANGLE[0][:2], [[(), (), ()], [(3, 0), (2, 0), (2, 1)]]), {},
     "out of range"),
    ((_TRIANGLE[0], _TRIANGLE[1][:2] + [[(1, 2, 0)]]), {},
     "simplicial identity"),
    (_TRIANGLE, {"provenance": [[None] * 3]}, "provenance shape"),
    (_TRIANGLE, {"decomps": [[None] * 3]}, "decomposition shape"),
    (_TRIANGLE, {"meta": {"dim_bound": 1}}, "dimension bound"),
], ids=["no-rank", "rank-count", "empty-block", "not-bytes", "order",
        "row-count", "vertex-face", "arity", "face-range", "identity",
        "provenance", "decomps", "dim-bound"])
def test_complex_refuses_malformed_tables(args, kwargs, message):
    full = [[None] * 3, [None] * 3, [None]]
    FinSimpSet(*_TRIANGLE, full, {"dim_bound": 2}, full)
    with pytest.raises(InvalidInputError, match=message):
        FinSimpSet(*args, **kwargs)


@pytest.mark.parametrize("data", [None, [], {"format": "finsimpset/2"}])
def test_complex_from_data_refuses_what_is_not_a_serialized_complex(data):
    with pytest.raises(InvalidInputError, match="not a serialized complex"):
        FinSimpSet.from_data(data)


def test_assembly_names_a_face_missing_from_the_rank_below():
    # without one rank-1 orbit of the (2,0,2) nerve, some rank-2 type has
    # a face with nowhere to start its word from
    sp = SympSpace(2, 2)
    types = _types(2, 0, lambda mc: induced_from_multicurve(2, 0, 2, mc),
                   lambda d: d)
    per_type = _orbit_types(sp, types, sp_group(sp), 200_000)
    drop = next(p for p in per_type if p[0].k == 1)
    with pytest.raises(LevelNerveError,
                       match=r"face of a type .* is missing from rank 1"):
        _assemble([p for p in per_type if p is not drop], {},
                  lambda td, x, F: x)


def _type_seed(case):
    """The seed and generators of the largest type of a (2,0,2) nerve or
    of the homology_cover(1,1,2) image complex, as the builders orbit
    them."""
    if case == "nerve-2-0-2":
        sp = SympSpace(2, 2)
        mc = max(multicurve_catalog(2, 0), key=lambda mc: len(mc.words))
        return induced_from_multicurve(2, 0, 2, mc, sp), sp_group(sp)
    spec = homology_cover(1, 1, 2)
    gens = list(dict.fromkeys(mcg_action_on_cover(spec, t, 2)
                              for t in twist_automorphisms(1, 1)))
    mc = max(multicurve_catalog(1, 1), key=lambda mc: len(mc.words))
    return induced_from_lift(spec, mc, 2).framed(), gens


@pytest.mark.parametrize("case", ["nerve-2-0-2", "image-homology-1-1-2"])
def test_orbit_keyed_by_serial_matches_orbit_keyed_by_form(case):
    seed, gens = _type_seed(case)
    by_serial = orbit_enumerate(seed, gens, sp_action, key=canonical_serial)
    by_form = orbit_enumerate(seed, gens, sp_action, key=canonical_form)
    assert len(by_serial.keys) > 1
    encoded = [repr(k).encode() for k in by_serial.keys]
    assert set(encoded) == set(by_form.keys)
    assert len(set(encoded)) == len(encoded)
    at = {k: i for i, k in enumerate(by_form.keys)}
    to_form = [at[e] for e in encoded]
    # the two Schreier graphs agree under the map, and so do the words
    for i, j in enumerate(to_form):
        assert by_form.moves[j] == tuple(to_form[t]
                                         for t in by_serial.moves[i])
        assert by_form.words[j] == by_serial.words[i]
        assert canonical_form(by_serial.elements[i]) == encoded[i]
