"""The complex builders: vertex counts against closed forms, a byte-equal
serialization round trip, face tables against a transport oracle with
pinned serializations, and an early refusal of incomplete catalogs."""

import gc
import hashlib
import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

from levelnerve.catalog import catalog_coverage, multicurve_catalog
from levelnerve.complexes import (FinSimpSet, _orbit_types, _types,
                                  build_abelian_nerve, build_image_complex,
                                  cross_validate)
from levelnerve.covers import homology_cover, identity_cover
from levelnerve.decomp import (FramedDecomposition, canonical_form,
                               decomposition_from_data, decomposition_to_data,
                               induced_from_lift, induced_from_multicurve,
                               validate)
from levelnerve.errors import InvalidInputError, UnsupportedError
from levelnerve import complexes, decomp, symplectic
from levelnerve.symplectic import (SympSpace, SympSubgroup, sp_group,
                                   tree_walk)
from oracles import (delta_0_6, nerve_split_systems, transport_mismatches,
                     transported_faces, transposition_mismatches,
                     weierstrass_pairs)


@lru_cache(maxsize=None)
def nerve(g, n, m):
    return build_abelian_nerve(g, n, m)


def primes_of(m):
    return [p for p in range(2, m + 1)
            if m % p == 0 and all(p % q for q in range(2, p))]


def jordan(k, m):
    """Jordan's totient J_k(m) = m^k prod_{p | m} (1 - p^-k)."""
    out = Fraction(m ** k)
    for p in primes_of(m):
        out *= 1 - Fraction(1, p ** k)
    return int(out)


def sp_order(g, m):
    """|Sp_2g(Z/m)| = m^(2g^2+g) prod_{p | m} prod_{i=1..g} (1 - p^-2i)."""
    out = Fraction(m ** (2 * g * g + g))
    for p in primes_of(m):
        for i in range(1, g + 1):
            out *= 1 - Fraction(1, p ** (2 * i))
    return int(out)


def closed_form_count(g, m, key):
    """Vertices of one single-curve type: primitive vectors up to sign for
    a non-separating curve, symplectic splittings H_h + H_(g-h) for a
    separating one (unordered when equal genera and no marks tell the
    sides apart)."""
    verts, ((u, v),) = key
    if u == v:
        return jordan(2 * g, m) // (1 if m == 2 else 2)
    (h, marks_h), (k, marks_k) = verts
    count = sp_order(g, m) // (sp_order(h, m) * sp_order(k, m))
    return count // 2 if (h, marks_h) == (k, marks_k) else count


RANK0 = {(1, 1, 2): 3, (1, 1, 3): 4, (1, 1, 4): 6, (1, 1, 5): 12,
         (1, 2, 2): 4, (1, 2, 3): 5, (2, 0, 2): 25, (2, 0, 3): 85}


@pytest.mark.parametrize("sig", sorted(RANK0), ids=str)
def test_rank0_counts_match_closed_forms(sig):
    g, n, m = sig
    X = nerve(g, n, m)
    per_type = Counter(key for key, _ in X.provenance[0])
    for key, count in per_type.items():
        assert count == closed_form_count(g, m, key)
    assert X.size(0) == RANK0[sig]


@pytest.mark.parametrize("m", range(2, 8))
def test_genus_one_vertices_are_the_cusps_of_gamma_m(m):
    # the rank-0 count at (1,1,m) is the number of cusps of Gamma(m):
    # |SL_2(Z/m)|/(2m), and 3 at m = 2, where -1 = 1
    want = 3 if m == 2 else sp_order(1, m) // (2 * m)
    assert nerve(1, 1, m).size(0) == want


@pytest.mark.parametrize("m", [2, 3, 4])
def test_two_marked_genus_one_nerve_is_connected(m):
    # the virtual cohomological dimension of Mod(S_{1,2}) forces the
    # reduced H_0 of the nerve to vanish
    X = nerve(1, 2, m)
    assert len(X.components()) == 1
    assert complexes.homology(X, 0) == (0,)


ROUND_TRIPS = [
    pytest.param(lambda sig=sig: nerve(*sig), sizes, id=f"nerve{sig}")
    for sig, sizes in (((1, 1, 2), [3]), ((1, 2, 3), [5, 8]),
                       ((2, 0, 2), [25, 105, 60]))
] + [pytest.param(lambda: build_image_complex(identity_cover(1, 2), 2),
                  [4, 6], id="image-identity-cover-1-2")]


@pytest.mark.parametrize("build, sizes", ROUND_TRIPS)
def test_serialization_round_trip_is_byte_equal(build, sizes):
    X = build()
    assert [X.size(k) for k in range(X.top_rank + 1)] == sizes
    text = json.dumps(X.to_data())
    Y = FinSimpSet.from_data(json.loads(text))
    assert json.dumps(Y.to_data()) == text
    assert (Y.encodings, Y.faces) == (X.encodings, X.faces)


def nerve_types(g, n, m):
    return _types(g, n, lambda mc: induced_from_multicurve(g, n, m, mc),
                  lambda d: d)


def image_types(spec, m):
    return _types(spec.g, spec.n, lambda mc: induced_from_lift(spec, mc, m),
                  lambda d: d.framed())


# sha256 of json.dumps(X.to_data()), as serialized when faces were still
# found by transporting every face shadow with the simplex's matrix
PINNED = [
    pytest.param(lambda sig=sig: nerve(*sig),
                 lambda sig=sig: nerve_types(*sig), digest, id=f"nerve{sig}")
    for sig, digest in (
        ((1, 1, 2), "2f9cb08428076566a0e6105aacd6434f"
                    "63ce94517c92c03a355518347ecbb4f2"),
        ((1, 1, 3), "99eac008913adbf9c450b2e62cb9a26e"
                    "ab4e1fdf2ccb6fa46b3e591a71bf2a5f"),
        ((1, 1, 4), "be2938c4a8dfe4909dc02fd8aab368f1"
                    "f86a166799ced3c9427b0fa0def803a4"),
        ((1, 1, 5), "ffb0d28d5ba25a112769ce9a06f55a0e"
                    "d1b0229f8526308dcd7569b55381d499"),
        ((1, 2, 2), "b32e812a25f8949cb93a8098e624cf24"
                    "9e093641c481c6bdcca5f9fe0b31ebfd"),
        ((1, 2, 3), "c0359a6366ecfb2e7ce1680f128a3f30"
                    "463147f16808a4ee32c7f30b61a47ad0"),
        ((2, 0, 2), "08ad850e95ff5d418a3711a5d8957897"
                    "ba6882d35931ed2bdde0ca8606e16011"),
        ((2, 0, 3), "6310fc89786628bc1cff88b01aa48806"
                    "7341f9ba568e3f3cd375698a15d07f95"))
] + [
    pytest.param(lambda spec=spec, m=m: build_image_complex(spec(), m),
                 lambda spec=spec, m=m: image_types(spec(), m),
                 digest, id=name)
    for name, spec, m, digest in (
        ("image-identity-cover-1-2", lambda: identity_cover(1, 2), 2,
         "1eacba73037130c46f8ffa726116c76a"
         "c0f43807cedb069a7f086909233bec3a"),
        ("image-identity-cover-1-1", lambda: identity_cover(1, 1), 2,
         "1aaa89d08cb22191fcf86cb001510f76"
         "e60b2b4064c51e7e4c03cd70e765c5cd"),
        ("image-homology-cover-1-1-2", lambda: homology_cover(1, 1, 2), 2,
         "b032b663353b0564f93b9cc764701a38"
         "7f5a7cafc24383cca7aec32ce2f6a8ce"),
        ("image-homology-cover-1-1-3", lambda: homology_cover(1, 1, 3), 3,
         "8bae40d454b2998dd9c133221d22328f"
         "bc5d53a7a3297033b8cf9c7c6cf85b55"))
]


@pytest.mark.parametrize("build, types, digest", PINNED)
def test_faces_match_transport_oracle(build, types, digest):
    X = build()
    assert transported_faces(X, types()) == X.faces
    text = json.dumps(X.to_data())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_nerve_transports_each_subgroup_value_once(monkeypatch):
    made = Counter()
    init = SympSubgroup.__init__

    def counted(self, *args):
        made["subgroups"] += 1
        init(self, *args)

    monkeypatch.setattr(SympSubgroup, "__init__", counted)
    X = build_abelian_nerve(2, 0, 3)
    # 22 108 when every apply built its image afresh, 2 040 when the space
    # constructed a subgroup for every new generator row list; now one per
    # lattice
    space = X.decomps[0][0].space
    lattices = {sub.lattice for sub in space._subgroups.values()}
    assert made["subgroups"] == len(lattices) == 212
    monkeypatch.undo()
    assert cross_validate(X)["ok"]
    # the shared subgroups are still the values their generators give
    for block in X.decomps:
        for d in block:
            for sub in d.vertex_groups + d.edge_groups:
                assert sub.key() == sub.space.subgroup(
                    sub.canonical_gens()).key()


@pytest.mark.parametrize("sig", [(1, 2, 3), (2, 0, 2)], ids=str)
def test_transport_matches_checking_constructor(sig):
    X = nerve(*sig)
    gens = sp_group(X.decomps[0][0].space)
    for block in X.decomps:
        for d in block:
            for F in gens:
                assert transport_mismatches(F, d) == []


def test_nerve_constructs_a_decomposition_only_per_induction(monkeypatch):
    calls = Counter()
    init = decomp.GraphDecomposition.__init__
    induce = complexes.induced_from_multicurve

    def counted_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    def counted_induce(*args, **kwargs):
        calls["induced"] += 1
        return induce(*args, **kwargs)

    monkeypatch.setattr(decomp.GraphDecomposition, "__init__", counted_init)
    monkeypatch.setattr(complexes, "induced_from_multicurve", counted_induce)
    build_abelian_nerve(2, 0, 3)
    # 5 451 constructions when every transport ran the constructor
    assert 0 < calls["init"] <= calls["induced"]


def test_nerve_canonical_forms_only_at_type_starts(monkeypatch):
    calls = Counter()
    form = decomp.canonical_form

    def counted(d):
        calls["form"] += 1
        return form(d)

    monkeypatch.setattr(complexes, "canonical_form", counted)
    monkeypatch.setattr(decomp, "canonical_form", counted)
    build_abelian_nerve(2, 0, 3)
    # each type of k + 1 >= 2 curves encodes its k + 1 vertex and k + 1
    # face shadows, and the orbits are keyed by canonical_serial; 5 451
    # calls when every orbit step encoded its element
    starts = sum(2 * len(mc.words) for mc in multicurve_catalog(2, 0)
                 if len(mc.words) > 1)
    assert calls["form"] == starts == 20


def test_nerve_keys_each_distinct_payload_once(monkeypatch):
    calls = Counter()
    serial = decomp.canonical_serial

    def counted(d):
        calls["serial"] += 1
        return serial(d)

    monkeypatch.setattr(complexes, "canonical_serial", counted)
    monkeypatch.setattr(decomp, "canonical_serial", counted)
    build_abelian_nerve(2, 0, 3)
    # 5 451 calls when every orbit step keyed its element; 1 682 once each
    # type keys each distinct payload of groups and frames once
    assert 0 < calls["serial"] <= 1_700


def test_nerve_space_holds_one_instance_per_lattice():
    X = build_abelian_nerve(2, 0, 3)
    space = X.decomps[0][0].space
    gc.collect()
    live = [obj for obj in gc.get_objects()
            if isinstance(obj, SympSubgroup) and obj.space is space]
    # 991 live instances for 212 distinct lattices when the space kept one
    # instance per generator row list
    assert len(live) == len({sub.lattice for sub in live}) == 212


def test_cross_validate_builds_each_subgroup_once(monkeypatch):
    X = build_abelian_nerve(2, 0, 3)
    calls = Counter()
    init = SympSubgroup.__init__

    def counted_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    def counted_cuts(V, edges):
        calls["cuts"] += 1
        return tree_cuts(V, edges)

    tree_cuts = decomp._tree_cuts
    monkeypatch.setattr(SympSubgroup, "__init__", counted_init)
    monkeypatch.setattr(decomp, "_tree_cuts", counted_cuts)
    assert cross_validate(X)["ok"]
    # 7 062 constructions when SympSpace.subgroup built every span and
    # frame subgroup afresh; 1 049 once equal generator rows share one;
    # none now that a lattice is looked up before constructing, since the
    # build has met every lattice the battery asks about
    assert calls["init"] == 0
    # each stored simplex is a copy of a seed whose validation computed
    # the tree and cuts of its bond clause, so none is computed again
    assert calls["cuts"] == 0


def test_cross_validate_solves_each_lattice_question_once(monkeypatch):
    X = build_abelian_nerve(2, 0, 3)
    space = X.decomps[0][0].space
    asked = {"cokernel_invariants": [], "solver": []}

    def counted(name):
        method = getattr(SympSpace, name)

        def ask(self, rows, width):
            asked[name].append((tuple(map(tuple, rows)), width))
            return method(self, rows, width)
        return ask

    class Kept(dict):
        """A memo that counts the answers stored in it."""
        stored = 0

        def __setitem__(self, key, value):
            self.stored += 1
            super().__setitem__(key, value)

    for name in asked:
        monkeypatch.setattr(SympSpace, name, counted(name))
    # from empty memos, the space computes one answer per distinct question
    space._cokernels, space._solvers = Kept(), Kept()
    assert cross_validate(X)["ok"]
    # 1 085 cokernel and 917 solver computations when each call computed
    # afresh
    cokernels, solvers = asked["cokernel_invariants"], asked["solver"]
    assert len(cokernels) == 1_085
    assert space._cokernels.stored == len(set(cokernels)) == 26
    assert space._solvers.stored == len(set(solvers)) == 386


def test_composite_nerve_runs_smith_forms_once_per_lattice(monkeypatch):
    # at composite m every new lattice runs snf_diagonal for its divisors
    made = Counter()
    init = SympSubgroup.__init__
    snf = symplectic.snf_diagonal

    def counted_init(self, *args):
        made["subgroups"] += 1
        init(self, *args)

    def counted_snf(mat):
        made["snf"] += 1
        return snf(mat)

    monkeypatch.setattr(SympSubgroup, "__init__", counted_init)
    monkeypatch.setattr(symplectic, "snf_diagonal", counted_snf)
    X = build_abelian_nerve(2, 0, 4)
    space = X.decomps[0][0].space
    lattices = {sub.lattice for sub in space._subgroups.values()}
    # 3 250 constructions when the space constructed a subgroup for every
    # new generator row list; the 14 further Smith forms are the seeds'
    # validations (36 before the space kept cokernel invariants)
    assert made["subgroups"] == len(lattices) == 682
    assert made["snf"] == 682 + 14
    made.clear()
    assert cross_validate(X)["ok"]
    simplices = sum(X.size(k) for k in range(X.top_rank + 1))
    # 6 398 constructions and 22 958 Smith forms before lattices were
    # looked up before constructing and the battery's answers kept, and
    # 6 040 + 670 while each simplex ran one for the invariants of its
    # gluing: now one per gluing relation matrix the build has not met
    # (191 of the 195 distinct), and one per vertex group lattice, for
    # splits_off_radical
    assert made["subgroups"] == 0
    assert simplices == 6040
    assert made["snf"] == 191 + 670


ORACLE_SIGNATURES = [(1, 1, m) for m in range(2, 6)] + [
    (1, 2, 2), (1, 2, 3), (2, 0, 2), (2, 0, 3), (2, 0, 4)]


def fresh_violations(d):
    """validate of a copy of d in a space of its own, so that no answer is
    read from a memo that another value filled."""
    return validate(decomposition_from_data(decomposition_to_data(d)))


def mutants(d):
    """(mutant, a label it must violate or None) for a framed d, built in
    d's own space: its first two vertex groups swapped, a non-isotropic
    first edge group, a first frame outside the first edge group, and the
    whole module as the group of the first vertex with a nonzero edge
    group, whose radical 0 is then not the span of its edge groups."""
    sp = d.space
    vg, eg, fr = list(d.vertex_groups), list(d.edge_groups), list(d.frames)
    out = []
    if d.V > 1 and vg[0] != vg[1]:
        out.append(([vg[1], vg[0]] + vg[2:], eg, fr, None))
    hyperbolic = sp.subgroup([sp.basis_a(1), sp.basis_b(1)])
    out.append((vg, [hyperbolic] + eg[1:], fr, "iii"))
    outside = next(v for v in (sp.basis_a(1), sp.basis_b(1))
                   if not eg[0].contains(v))
    out.append((vg, eg, [outside] + fr[1:], "frame"))
    for v in range(d.V):
        if any(eg[e].rank for e in d.incident(v)):
            whole = vg[:v] + [sp.subgroup(sp.identity_matrix())] + vg[v + 1:]
            out.append((whole, eg, fr, "vi"))
            break
    return [(FramedDecomposition(sp, v, e, d.edges, f, d.marks, d.n), label)
            for v, e, f, label in out]


@pytest.mark.parametrize("sig", ORACLE_SIGNATURES, ids=str)
def test_battery_memos_answer_as_a_fresh_space(sig):
    X = nerve(*sig)
    for block in X.decomps:
        for d in block:
            assert validate(d) == fresh_violations(d) == []
    # the failing branches, on memos the stored simplices warmed: one
    # simplex of each type and rank
    firsts = {(k, key): X.decomps[k][i] for k in range(X.top_rank + 1)
              for i, (key, _) in reversed(list(enumerate(X.provenance[k])))}
    for d in firsts.values():
        for mutant, label in mutants(d):
            bad = validate(mutant)
            assert bad == fresh_violations(mutant)
            assert label is None or label in bad


def position_walk_mismatches(g, n, m, pick):
    """The self-check of a type's stabilizer, read off its position walk,
    over the types of rank k >= 1 of the (g, n, m) nerve that pick(key)
    selects.  The (vertex, face) pair of each curve of the seed is found
    by canonical form in the built nerve, then moved along the orbit's
    tree through the rank-wide Schreier graphs of rank 0 and k - 1, as
    _assemble moves it.  Each other edge (x, j, y) closes a stabilizer
    word, which fixes the seed's pairs exactly when j moves x's pairs onto
    y's as multisets.  Returns the mismatched and all other edges."""
    X = nerve(g, n, m)
    index = [{e: i for i, e in enumerate(b)} for b in X.encodings]
    space = SympSpace(g, m)
    per_type = _orbit_types(space, nerve_types(g, n, m), sp_group(space),
                            200_000)
    graph = [[None] * len(b) for b in X.encodings]
    for td, res, _ in per_type:
        at = [index[td.k][repr(key).encode()] for key in res.keys]
        for x, row in enumerate(res.moves):
            graph[td.k][at[x]] = tuple(at[y] for y in row)
    bad = total = 0
    for td, res, _ in per_type:
        if not td.k or not pick(td.key):
            continue
        below = graph[td.k - 1]

        def moved(pairs, j):
            return tuple((graph[0][v][j], below[f][j]) for v, f in pairs)

        starts = tuple((index[0][canonical_form(v)],
                        index[td.k - 1][canonical_form(f)])
                       for v, f in zip(td.vert_shadows, td.face_shadows))
        pairs, other = tree_walk(res.moves, starts,
                                 lambda p, x, j: moved(p, j))
        bad += sum(sorted(moved(pairs[x], j)) != sorted(pairs[y])
                   for x, j, y in other)
        total += len(other)
    return bad, total


# the genus-2 dumbbell: two loops joined by a bridge
DUMBBELL = (((0, ()), (0, ())), ((0, 0), (0, 1), (1, 1)))
DUMBBELL_XFAIL = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 17: a dumbbell simplex's separating vertex "
           "depends on the tree, not on the simplex: 43/181 non-tree "
           "edges mismatch at (2,0,2) and 383/961 at (2,0,3)")


@pytest.mark.parametrize("sig, which", [
    ((1, 2, 2), "all"), ((1, 2, 3), "all"),
    ((2, 0, 2), "not dumbbell"), ((2, 0, 3), "not dumbbell"),
    pytest.param((2, 0, 2), "dumbbell", marks=DUMBBELL_XFAIL),
    pytest.param((2, 0, 3), "dumbbell", marks=DUMBBELL_XFAIL),
], ids=str)
def test_position_walk_closes_on_every_other_edge(sig, which):
    pick = {"all": lambda key: True,
            "not dumbbell": lambda key: key != DUMBBELL,
            "dumbbell": lambda key: key == DUMBBELL}[which]
    bad, total = position_walk_mismatches(*sig, pick)
    assert total > 0
    assert bad == 0, f"{bad} of {total} non-tree edges"


@pytest.mark.parametrize("sig", [(1, 2, 3), (2, 0, 3)], ids=str)
def test_nerve_decompositions_share_one_space(sig):
    X = nerve(*sig)
    spaces = {id(sub.space) for block in X.decomps for d in block
              for sub in (d,) + d.vertex_groups + d.edge_groups}
    assert len(spaces) == 1


@pytest.mark.xfail(strict=True, raises=InvalidInputError,
                   reason="ROADMAP 1b: no consistent vertex order by "
                          "encoding once a simplex repeats a vertex")
def test_nerve_2_1_2_cross_validates():
    try:
        X = build_abelian_nerve(2, 1, 2)
    except InvalidInputError as exc:
        assert str(exc) == ("simplicial identity fails at rank 3, "
                            "simplex 16, pair (0,1)")
        raise
    assert cross_validate(X)["ok"]


def test_incomplete_catalog_refused_up_front():
    _, missing = catalog_coverage(2, 2)
    assert len(missing) == 42
    for build in (lambda: build_abelian_nerve(2, 2, 2),
                  lambda: build_image_complex(identity_cover(2, 2), 2)):
        with pytest.raises(UnsupportedError) as err:
            build()
        text = str(err.value)
        assert "misses 42 types" in text
        assert all(repr(t.canonical_key()) in text for t in missing)


def test_nerve_modulus_must_be_an_int():
    with pytest.raises(InvalidInputError, match="must be an int"):
        build_abelian_nerve(1, 1, 2.0)


@pytest.mark.parametrize("cap", [2.5, True, None, "x"], ids=repr)
def test_builders_refuse_a_cap_that_is_not_an_int(cap):
    # a float or bool cap used to run until an orbit outgrew it, None or a
    # string to fail on a comparison inside orbit_enumerate
    sp = SympSpace(1, 3)
    for build in (lambda: build_abelian_nerve(1, 1, 3, cap=cap),
                  lambda: build_image_complex(homology_cover(1, 1, 2), 2,
                                              cap=cap),
                  lambda: sp.sp_closure(sp_group(sp), cap=cap)):
        with pytest.raises(InvalidInputError, match="cap must be an int"):
            build()


def test_weierstrass_pair_model():
    # the chain classes mod 2 pair like a path, the pairs of {1..6} fill
    # F_2^4 less 0 with <u, v> = |A & B| mod 2, and twist i acts on them as
    # the transposition (i i+1)
    pairs, classes = weierstrass_pairs()
    space = SympSpace(2, 2)
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            assert space.pairing(ci, cj) == (abs(i - j) == 1)
    assert sorted(pairs) == [v for v in product((0, 1), repeat=4) if any(v)]
    for u, A in pairs.items():
        for v, B in pairs.items():
            assert space.pairing(u, v) == len(set(A) & set(B)) % 2
    for i, c in enumerate(classes, start=1):
        swap = {i: i + 1, i + 1: i}
        for u, A in pairs.items():
            image = space.mat_apply(u, space.transvection(c))
            assert pairs[image] == tuple(sorted(swap.get(x, x) for x in A))


def test_nerve_2_0_2_vertices_and_edges_are_delta_0_6():
    ref = delta_0_6()
    assert [len(block) for block in ref] == [25, 105, 105]
    X = nerve(2, 0, 2)
    images = nerve_split_systems(X)
    for k in (0, 1):
        assert all(len(s) == k + 1 for s in images[k])
        assert len(set(images[k])) == len(images[k]) == len(ref[k])
        assert set(images[k]) == ref[k]
        assert transposition_mismatches(X, k, images) == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 17: the dumbbell orbit is halved, "
                          "so the nerve has 60 triangles, not 105")
def test_nerve_2_0_2_is_delta_0_6():
    # M_2[2] is M_{0,6} through the six Weierstrass points, so the nerve
    # must map rank by rank bijectively onto the split complex of {1..6},
    # with twist i acting as the transposition (i i+1)
    ref = delta_0_6()
    X = nerve(2, 0, 2)
    images = nerve_split_systems(X)
    assert len(images) == len(ref)
    for k, (block, want) in enumerate(zip(images, ref)):
        assert all(len(s) == k + 1 for s in block)
        assert len(set(block)) == len(block) == len(want)
        assert set(block) == want
        assert transposition_mismatches(X, k, images) == []
