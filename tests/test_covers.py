import functools
import hashlib

import pytest
import sympy
from hypothesis import given, strategies as st

from levelnerve.errors import (InvalidInputError, InvalidCoverError,
                               LevelNerveError, ResourceLimitError,
                               ValidationError)
from levelnerve.surface import (homology_class, presentation,
                                twist_automorphisms)
from levelnerve.complexes import build_abelian_nerve, build_image_complex
from levelnerve.decomp import induced_from_lift, validate
from levelnerve.catalog import delete_curves, multicurve_catalog
from levelnerve.symplectic import (SympSpace, checked_matrix, mat_identity,
                                   mat_mul)
from levelnerve.words import winv, wmul, wpow, wreduce
from levelnerve import covers, symplectic
from levelnerve.covers import (
    AbelianOps,
    CoverSpec,
    analyze_cover,
    cover_homology,
    lift_multicurve,
    lift_cut_graph,
    derived_cover,
    invariance_check,
    mcg_action_on_cover,
    deck_coset_representative,
    identity_cover,
    homology_cover,
    abelian_cover,
    perm_cover,
    cover_spec_to_data,
    cover_spec_from_data,
    _chain,
    _signed_sum,
    _subgroup_orbits,
    _symplectic_rows,
    _table,
    _unimodular_inverse,
)
from oracles import (RecordElimination, deck_matrices_by_sheets,
                     deck_perms_by_products, product_table)

SWAP = (1, 0)
ID2 = (0, 1)


@pytest.fixture(scope="module")
def h2():
    return homology_cover(2, 0, 2)


@pytest.fixture(scope="module")
def cover11():
    # a1 acts by the flip, b1 trivially
    return perm_cover(1, 1, 2, [SWAP, ID2])


@pytest.fixture(scope="module")
def cat20():
    return multicurve_catalog(2, 0)


def in_kernel(spec, word):
    return spec.phi(word) == spec.group.ops.identity


def _single_curve_reps(cat, pres):
    sep = nonsep = None
    for rep in cat:
        if len(rep.words) != 1:
            continue
        cls = pres.homology_class(rep.words[0], 2)
        if all(c == 0 for c in cls) and len(rep.pieces) == 2:
            sep = rep
        elif any(c != 0 for c in cls) and nonsep is None:
            nonsep = rep
    return sep, nonsep


# -- construction and validation


def test_identity_cover_analysis():
    for (g, n, n_K, chi_open) in [(2, 0, 0, -2), (1, 1, 1, -1),
                                  (2, 1, 1, -3), (1, 2, 2, -2)]:
        ana = analyze_cover(identity_cover(g, n))
        assert ana.degree == 1
        assert ana.n_K == n_K
        assert ana.g_K == g
        assert ana.chi_open == chi_open
        assert ana.chi_closed == 2 - 2 * g


def test_image_count_validated():
    with pytest.raises(InvalidInputError):
        perm_cover(2, 0, 2, [SWAP, ID2])


def test_relator_must_die_for_closed_base():
    # a1 -> (01), b1 -> (02) in S_3 leaves the commutator alive
    with pytest.raises(InvalidCoverError):
        perm_cover(2, 0, 3, [(1, 0, 2), (0, 1, 2), (2, 1, 0), (0, 1, 2)])


def test_proper_image_flag():
    spec = abelian_cover(1, 1, (2, 2), [(1, 0), (1, 0)], declared_order=4)
    assert spec.degree == 2
    assert spec.proper_image
    assert not homology_cover(1, 1, 2).proper_image


def test_alphabet_errors():
    spec = identity_cover(2, 0)
    with pytest.raises(InvalidInputError):
        spec.phi((5,))
    with pytest.raises(InvalidInputError):
        spec.order_of((-5,))


def test_abelian_moduli_validated():
    with pytest.raises(InvalidInputError):
        abelian_cover(1, 1, (1, 2), [(0, 0), (0, 0)])


# -- Euler characteristic bookkeeping


def test_punctured_cover_analysis(cover11):
    ana = analyze_cover(cover11)
    assert ana.degree == 2
    assert ana.n_K == 2
    assert ana.g_K == 1
    assert ana.punctures == ((2, 1),)
    assert ana.chi_open == -2
    assert ana.chi_closed == 0


def test_ramified_cover_analysis():
    # S_3 cover of the punctured torus; the puncture word has order 3
    spec = perm_cover(1, 1, 3, [(1, 0, 2), (2, 1, 0)])
    ana = analyze_cover(spec)
    assert ana.degree == 6
    assert ana.punctures == ((2, 3),)
    assert ana.n_K == 2
    assert ana.chi_open == -6
    assert ana.chi_closed == -4
    assert ana.g_K == 3


def test_homology_cover_analysis(h2):
    ana = analyze_cover(h2)
    assert ana.degree == 16
    assert ana.n_K == 0
    assert ana.punctures == ()
    assert ana.g_K == 17
    assert ana.chi_closed == -32
    # degree multiplicativity of the open characteristic
    assert ana.chi_open == 16 * analyze_cover(identity_cover(2, 0)).chi_open


# -- homology of the cover with deck action


def test_identity_cover_homology_matches_base():
    for (g, n) in [(2, 0), (1, 1), (2, 1)]:
        spec = identity_cover(g, n)
        pres = presentation(g, n)
        hom = cover_homology(spec, 3)
        assert hom.rank == 2 * g
        assert hom.matrices == (hom.space.identity_matrix(),)
        # the cover basis reproduces base homology classes exactly
        for j in range(1, pres.cover_rank() + 1):
            assert hom.class_of((j,)) == pres.homology_class((j,), 3)
        for w in [(1, 2, -1), (2, 1, 2), (1, 1, 2, -1, -2)]:
            assert hom.class_of(w) == pres.homology_class(w, 3)


def test_identity_cover_trivial_action_m3():
    hom = cover_homology(identity_cover(2, 0), 3)
    assert hom.rank == 4
    assert len(hom.matrices) == 1
    assert hom.matrices[0] == hom.space.identity_matrix()
    assert hom.faithful


def test_homology_cover_rank_and_faithful(h2):
    hom = cover_homology(h2, 2)
    assert hom.rank == 34
    assert hom.rank == 2 * analyze_cover(h2).g_K
    assert hom.faithful
    assert cover_homology(h2, 3).faithful


def test_deck_action_is_symplectic_homomorphism(h2):
    hom = cover_homology(h2, 2)
    els = h2.group.elements
    idx = {e: i for i, e in enumerate(els)}
    assert all(hom.space.is_symplectic(M) for M in hom.matrices)
    for a in els[:4] + els[7:9]:
        for b in els[5:11]:
            ab = h2.group.ops.mul(a, b)
            M = {x: hom.matrices[idx[x]] for x in (a, b, ab)}
            assert hom.space.mat_mul(M[a], M[b]) == M[ab]


def test_integral_homology_of_punctured_cover(cover11):
    hom = cover_homology(cover11, 0)
    assert hom.rank == 2
    # the deck flip is a translation of the filled torus
    assert all(M == hom.space.identity_matrix() for M in hom.matrices)
    assert not hom.faithful


def test_peripheral_records(cover11):
    hom = cover_homology(cover11, 0)
    assert len(hom.peripheral) == 2
    assert sorted(r[0] for r in hom.peripheral) == [1, 1]
    assert all(r[2] == 1 for r in hom.peripheral)


def test_homology_modulus_validated(h2):
    with pytest.raises(InvalidInputError):
        cover_homology(h2, 1)


@pytest.mark.parametrize("m", [2.0, "2", True, None], ids=repr)
def test_homology_modulus_must_be_an_int(m):
    # checked before the lookup: 2.0 == 2 would find the m = 2 homology
    spec = homology_cover(1, 1, 2)
    cover_homology(spec, 2)
    with pytest.raises(InvalidInputError, match="must be an int"):
        cover_homology(spec, m)
    assert set(spec._homs) == {2}
    fresh = homology_cover(1, 1, 2)
    with pytest.raises(InvalidInputError, match="must be an int"):
        cover_homology(fresh, m)
    assert fresh._homs == {}


def test_homology_resource_limit():
    spec = homology_cover(2, 0, 5)
    assert spec.degree == 625
    with pytest.raises(ResourceLimitError):
        cover_homology(spec, 5)


# -- lifting multicurves


def test_lift_separating_curve(h2, cat20):
    pres = presentation(2, 0)
    sep, _ = _single_curve_reps(cat20, pres)
    res = lift_multicurve(h2, sep, 2)
    assert res.degree == 16 and res.g_K == 17
    (curve,) = res.curves
    assert curve.cycle_length == 1
    assert curve.component_count == 16
    assert not res.has_separating_component
    assert not res.has_cut_pair
    assert len(res.sigma.vertices) == 8
    assert len(res.sigma.edges) == 16
    assert all(gv == 1 for (gv, _) in res.sigma.vertices)
    assert res.sigma.genus() == 17


def test_lift_nonseparating_curve(h2, cat20):
    pres = presentation(2, 0)
    _, nonsep = _single_curve_reps(cat20, pres)
    res = lift_multicurve(h2, nonsep, 2)
    (curve,) = res.curves
    assert curve.cycle_length == 2
    assert curve.component_count == 8
    assert curve.component_count * curve.cycle_length == 16
    assert not res.has_separating_component
    assert not res.has_cut_pair


def test_identity_lifts_reproduce_base_graph(cat20):
    for (g, n) in [(2, 0), (1, 1)]:
        spec = identity_cover(g, n)
        cat = cat20 if (g, n) == (2, 0) else multicurve_catalog(g, n)
        for rep in cat:
            res = lift_multicurve(spec, rep, 2)
            assert res.sigma.canonical_key() == rep.graph.canonical_key()
            assert res.has_separating_component == bool(rep.graph.bridges())
            assert res.has_cut_pair == bool(rep.graph.minimal_two_cuts())


def test_identity_lift_classes_match_base(cat20):
    spec = identity_cover(2, 0)
    pres = presentation(2, 0)
    for rep in cat20:
        res = lift_multicurve(spec, rep, 3)
        for lc, w in zip(res.curves, rep.words):
            assert lc.classes == (pres.homology_class(w, 3),)


def test_lift_signature_mismatch(h2):
    rep = multicurve_catalog(1, 1)[0]
    with pytest.raises(InvalidInputError):
        lift_multicurve(h2, rep, 2)


# -- what a cover keeps between lifts


def _seed_stage(g, n):
    """The multicurves the seed stage of the image complex lifts: each
    catalog type with curves, its one-curve deletions and its all-but-one
    deletions; 26 of them at (2, 0)."""
    out = []
    for mc in multicurve_catalog(g, n):
        E = len(mc.words)
        if E == 0:
            continue
        out.append(mc)
        if E > 1:
            out += [delete_curves(mc, {j}) for j in range(E)]
            out += [delete_curves(mc, set(range(E)) - {j}) for j in range(E)]
    return out


def _cut_graph_fields(cg):
    return (cg.vert_classes, cg.edge_class, cg.vperms, cg.eperms,
            cg.sigma.vertices, cg.sigma.edges)


@pytest.mark.parametrize("make, g, n, m", [
    (lambda: homology_cover(2, 0, 2), 2, 0, 2),
    (lambda: homology_cover(1, 1, 3), 1, 1, 3),
], ids=["h202", "h113"])
def test_kept_lifts_equal_fresh_ones(make, g, n, m):
    # every multicurve lifted twice through one warm cover and once
    # through a cover of its own that has kept nothing
    spec = make()
    mcs = _seed_stage(g, n)
    if (g, n) == (2, 0):
        assert len(mcs) == 26
    warm = [lift_cut_graph(spec, mc, m) for mc in mcs]
    for mc, first in zip(mcs, warm):
        again = _cut_graph_fields(lift_cut_graph(spec, mc, m))
        fresh = _cut_graph_fields(lift_cut_graph(make(), mc, m))
        assert _cut_graph_fields(first) == again == fresh


@pytest.mark.parametrize("word", [(5,), (1, -5)])
def test_walk_refuses_letters_outside_the_alphabet(word):
    spec = homology_cover(2, 0, 2)
    chain = _chain(spec)
    t = _table(spec)
    for _ in range(2):
        with pytest.raises(InvalidInputError, match="outside cover alphabet"):
            chain.walk(0, word)
        with pytest.raises(InvalidInputError, match="outside cover alphabet"):
            _subgroup_orbits(t, [word])
    assert chain.walks == {}
    assert t.orbits == {}


def test_kept_walk_that_does_not_close_is_refused_every_time(h2):
    chain = _chain(h2)
    end, _ = chain.walk(0, (1,))
    assert end != 0
    for _ in range(2):
        with pytest.raises(LevelNerveError, match="cover subgroup"):
            chain.closed_class(0, (1,))
    assert (0, (1,)) in chain.walks


def test_covers_with_other_images_keep_their_own_entries(cat20):
    # one base, two Z/2 covers: what each keeps is what it reads itself,
    # and a twin of it that has kept nothing walks each key alike
    images = {"a": [(1,), (0,), (0,), (0,)], "b": [(0,), (1,), (0,), (0,)]}
    a, b = (abelian_cover(2, 0, (2,), images[k]) for k in "ab")
    for mc in cat20:
        lift_cut_graph(a, mc, 2)
        lift_cut_graph(b, mc, 2)
    for spec, other, k in ((a, b, "a"), (b, a, "b")):
        chain, t = _chain(spec), _table(spec)
        hom = cover_homology(spec, 2)
        assert chain.walks and t.orbits and hom._copies
        twin = _chain(abelian_cover(2, 0, (2,), images[k]))
        assert all(twin.walk(*key) == out
                   for key, out in chain.walks.items())
        trace = spec.group.trace
        assert all(covers.components(t.d, [(g, trace(g, w)) for w in key
                                           for g in range(t.d)]) == out
                   for key, out in t.orbits.items())
        assert all(covers._piece_copy_classes(hom.space, chain, *key) == out
                   for key, out in hom._copies.items())
        assert chain.walks is not _chain(other).walks
        assert t.orbits is not _table(other).orbits
        assert hom._copies is not cover_homology(other, 2)._copies
    # the same keys read differently on the two covers
    assert any(_chain(b).walk(*key) != out
               for key, out in _chain(a).walks.items())
    assert any(_table(b).orbits.get(key, out) != out
               for key, out in _table(a).orbits.items())


def test_seed_stage_walks_each_word_once(monkeypatch):
    # the 26 seed-stage lifts through one fresh cover, deck homology
    # included: 746 rewrites, 78 copy class computations and 41 sheet
    # orbit computations, where reading every word afresh made 4 416, 136
    # and 149, and reading the deck matrices at every sheet 1 120 rewrites
    spec = homology_cover(2, 0, 2)
    counts = {"rewrite": 0, "copies": 0, "orbits": 0}
    table_type = type(_table(spec))
    rewrite = table_type.rewrite
    copies = covers._piece_copy_classes
    components = covers.components

    def counted(name, fn):
        def run(*args):
            counts[name] += 1
            return fn(*args)
        return run

    monkeypatch.setattr(table_type, "rewrite", counted("rewrite", rewrite))
    monkeypatch.setattr(covers, "_piece_copy_classes",
                        counted("copies", copies))
    monkeypatch.setattr(covers, "components", counted("orbits", components))
    for mc in _seed_stage(2, 0):
        lift_cut_graph(spec, mc, 2)
    assert counts["rewrite"] <= 800
    assert counts["copies"] <= 78
    assert counts["orbits"] <= 41


@pytest.mark.parametrize("make, g, n, count", [
    (lambda: homology_cover(2, 0, 2), 2, 0, 26),
    (lambda: derived_cover(homology_cover(1, 1, 2), 2), 1, 1, 1),
], ids=["h202", "derived112"])
def test_deck_perms_match_the_product_table(make, g, n, count):
    # each lift's deck permutations, traced along the words of the least
    # sheets, against the construction from the d x d product table
    spec = make()
    tables = product_table(spec.group)
    mcs = _seed_stage(g, n)
    assert len(mcs) == count
    for mc in mcs:
        cg = lift_cut_graph(spec, mc, 2)
        assert (cg.vperms, cg.eperms) == \
            deck_perms_by_products(spec, mc, cg, tables)


# -- derived covers


def test_derived_cover_of_free_base():
    spec = derived_cover(identity_cover(1, 1), 2)
    assert spec.degree == 4
    assert spec.kind == "perm"
    # same kernel as the mod-2 homology cover
    other = homology_cover(1, 1, 2)
    assert all(in_kernel(spec, w) for w in _table(other).loop_words)
    assert all(in_kernel(other, w) for w in _table(spec).loop_words)


def test_derived_cover_of_closed_base(h2):
    spec = derived_cover(identity_cover(2, 0), 2)
    assert spec.degree == 16
    assert all(in_kernel(spec, w) for w in _table(h2).loop_words)
    assert all(in_kernel(h2, w) for w in _table(spec).loop_words)
    assert analyze_cover(spec).g_K == 17


def test_derived_lifts_kill_both_flags(cat20):
    spec = derived_cover(identity_cover(2, 0), 2)
    for rep in cat20:
        res = lift_multicurve(spec, rep, 2)
        assert not res.has_separating_component
        assert not res.has_cut_pair


def test_derived_iterated_characteristic():
    d1 = derived_cover(identity_cover(1, 1), 2)
    d2 = derived_cover(d1, 2)
    assert d2.degree == 128
    ana = analyze_cover(d2)
    assert ana.chi_open == -128
    assert ana.n_K == 64
    assert ana.g_K == 33
    assert ana.chi_closed == 2 - 2 * ana.g_K


def s3_cover():
    return perm_cover(1, 1, 3, [(1, 2, 0), (1, 0, 2)])


def double_cover():
    return perm_cover(2, 0, 2, [SWAP, ID2, ID2, ID2])


def test_derived_resource_limit(h2):
    with pytest.raises(ResourceLimitError):
        derived_cover(h2, 2)
    with pytest.raises(ResourceLimitError, match="13122"):
        derived_cover(s3_cover(), 3)
    with pytest.raises(InvalidInputError):
        derived_cover(h2, 1)


# sha256 of repr(images) of the derived cover, recorded from the group
# extension construction that the coset action replaced; the permutations
# number the cosets in the shortlex order of their breadth-first words
DERIVED_IMAGES = [
    (lambda: identity_cover(1, 1), 2, 4,
     "e97a9958fbdd92ae2a20c48d8a11f3731fe8604d954bca515b10b59522ecce0e"),
    (lambda: identity_cover(1, 1), 3, 9,
     "2c916a534a11ade46d6655e6f1003da5747df9af49eb93f650f2db2d2d063d05"),
    (lambda: identity_cover(1, 2), 2, 8,
     "5be371d48437e0cddfd739600f580cb8e754c0bbefb3de958379cc79015d8611"),
    (lambda: homology_cover(1, 1, 2), 2, 128,
     "5f45561076301c765d51d1545fe53431cf7e7c6e225eb257ceac1a345c8753f2"),
    (s3_cover, 2, 768,
     "e9f525488b9e91a4c186301528ecb5c6f7a29f9feb0e8ed5856d84c54b7bea03"),
    (lambda: abelian_cover(1, 2, (3,), [(1,), (2,), (1,)]), 2, 384,
     "d507fe8899d767247e5d9a89ee92f68906c91a0b285345981035cc268dcb1c35"),
    (lambda: identity_cover(2, 0), 2, 16,
     "d13e098081e2be75559e89c86ee449992af2841bca0674b421b96ce1564fd5f3"),
    (double_cover, 2, 128,
     "2867099f5b1917399bfbedbfbbfca4fd862da7db1ad2411f9849320733775d9e"),
]


@pytest.mark.parametrize(
    "make, ell, degree, digest", DERIVED_IMAGES,
    ids=["id11-2", "id11-3", "id12-2", "h112-2", "s3-2", "ab12-2",
         "id20-2", "double20-2"])
def test_derived_cover_images_are_pinned(make, ell, degree, digest):
    spec = derived_cover(make(), ell)
    assert spec.degree == degree
    assert hashlib.sha256(repr(spec.images).encode()).hexdigest() == digest


@pytest.mark.parametrize("make", [s3_cover, double_cover],
                         ids=["s3-11", "double-20"])
def test_derived_kernel_over_a_nontrivial_deck_group(make):
    """Over a base whose deck group acts nontrivially on the loops of K:
    the derived cover has degree d * ell^rank, each of its Schreier
    generators lies in K with class 0 mod ell, and the ell-th powers and
    pairwise commutators of K's loop words lie in its kernel."""
    ell = 2
    base = make()
    t = _table(base)
    rank = t.L if base.n >= 1 else 2 * _chain(base).g_K
    spec = derived_cover(base, ell)
    assert spec.degree == base.degree * ell ** rank
    for w in _table(spec).loop_words:
        end, ids = t.rewrite(0, w)
        assert end == 0
        if base.n >= 1:
            cls = [ids.count(i) - ids.count(-i) for i in range(1, t.L + 1)]
        else:
            cls = _signed_sum(_chain(base).survivor_rows, ids)
        assert all(x % ell == 0 for x in cls)
    loops = t.loop_words
    assert all(in_kernel(spec, wpow(w, ell)) for w in loops)
    assert all(in_kernel(spec, wmul(u, w, winv(u), winv(w)))
               for u in loops for w in loops)


# -- twist invariance and induced action


def test_invariance_of_characteristic_cover(h2):
    assert invariance_check(h2, presentation(2, 0).twists())


def test_invariance_failure():
    spec = perm_cover(2, 0, 2, [SWAP, ID2, ID2, ID2])
    tw = presentation(2, 0).twists()
    assert not invariance_check(spec, tw)
    assert invariance_check(spec, [tw[0]])
    assert not invariance_check(spec, [tw[1]])


def test_invariance_of_identity_cover():
    spec = identity_cover(2, 0)
    assert invariance_check(spec, presentation(2, 0).twists())


def test_mcg_identity_element():
    spec = identity_cover(2, 0)
    hom = cover_homology(spec, 5)
    assert mcg_action_on_cover(spec, [], 5) == hom.space.identity_matrix()


def test_mcg_identity_cover_matches_twist_matrices():
    spec = identity_cover(2, 0)
    pres = presentation(2, 0)
    space5 = cover_homology(spec, 5).space
    space2 = cover_homology(spec, 2).space
    for t in pres.twists():
        assert (mcg_action_on_cover(spec, t, 5)
                == space5.reduce_matrix(t.hom_matrix))
        assert (mcg_action_on_cover(spec, t, 2)
                == space2.reduce_matrix(space2.transvection(t.curve_class)))


def test_mcg_class_a1_twist_is_transvection():
    spec = identity_cover(2, 0)
    pres = presentation(2, 0)
    space = cover_homology(spec, 2).space
    t2 = pres.twists()[1]
    assert space.reduce(t2.curve_class) == space.basis_a(1)
    got = mcg_action_on_cover(spec, t2, 2)
    assert got == space.reduce_matrix(space.transvection(space.basis_a(1)))


def test_mcg_inverse_lands_in_deck_image(h2):
    hom = cover_homology(h2, 2)
    t1 = presentation(2, 0).twists()[0]
    M = mcg_action_on_cover(h2, t1, 2)
    Minv = mcg_action_on_cover(h2, [(t1, -1)], 2)
    assert hom.space.mat_mul(M, Minv) in set(hom.matrices)


def test_mcg_composition_canonical(h2):
    hom = cover_homology(h2, 2)
    tw = presentation(2, 0).twists()
    Ma = mcg_action_on_cover(h2, tw[0], 2)
    Mb = mcg_action_on_cover(h2, tw[1], 2)
    Mab = mcg_action_on_cover(h2, [tw[0], tw[1]], 2)
    assert Mab == deck_coset_representative(hom, hom.space.mat_mul(Ma, Mb))


def test_mcg_requires_invariance():
    spec = perm_cover(2, 0, 2, [SWAP, ID2, ID2, ID2])
    t2 = presentation(2, 0).twists()[1]
    # traced on the first call, read from the recorded verdict on the second
    for _ in range(2):
        with pytest.raises(ValidationError) as err:
            mcg_action_on_cover(spec, t2, 2)
        assert err.value.condition == "invariance"
        assert err.value.detail == \
            "twist does not preserve the cover subgroup"


def test_no_element_is_multiplied_after_the_group_is_built(monkeypatch):
    # the deck homology, the five twist matrices and the 26 seed-stage
    # lifts with their validation read the Cayley graph of the deck group
    # and never call its group operations; a cover built under the same
    # patch shows that the count sees them
    spec = homology_cover(2, 0, 2)
    calls = []
    ops_type = type(spec.group.ops)
    for name in ("mul", "inv"):
        def counting(self, *args, real=getattr(ops_type, name), name=name):
            calls.append(name)
            return real(self, *args)
        monkeypatch.setattr(ops_type, name, counting)
    cover_homology(spec, 2)
    twists = presentation(2, 0).twists()
    assert len(twists) == 5
    for t in twists:
        mcg_action_on_cover(spec, t, 2)
    mcs = _seed_stage(2, 0)
    assert len(mcs) == 26
    for mc in mcs:
        assert validate(induced_from_lift(spec, mc, 2)) == []
    assert calls == []
    homology_cover(2, 0, 2)
    assert "mul" in calls


def test_each_twist_is_traced_once(monkeypatch):
    # the seed stage of the image complex on a fresh cover: invariance_check
    # traces each of the 5 twists over every Schreier generator, and
    # mcg_action_on_cover reads the recorded verdicts
    spec = homology_cover(2, 0, 2)
    traced = []
    group_type = type(spec.group)
    trace = group_type.trace

    def counting(self, start, word):
        traced.append(word)
        return trace(self, start, word)

    twists = presentation(2, 0).twists()
    cover_homology(spec, 2)
    monkeypatch.setattr(group_type, "trace", counting)
    assert invariance_check(spec, twists)
    for t in twists:
        mcg_action_on_cover(spec, t, 2)
    assert len(twists) == 5
    assert len(traced) == 5 * len(_table(spec).loop_words)


def test_mcg_modulus_validated():
    spec = identity_cover(2, 0)
    with pytest.raises(InvalidInputError):
        mcg_action_on_cover(spec, [], 0)


MODULUS_ENTRIES = {
    "mcg_action": lambda spec, m: mcg_action_on_cover(spec, [], m),
    "nerve": lambda spec, m: build_abelian_nerve(1, 1, m),
    "image_complex": lambda spec, m: build_image_complex(spec, m),
    "derived": lambda spec, m: derived_cover(spec, m),
    "homology_cover": lambda spec, m: homology_cover(1, 1, m),
    "cover_homology": lambda spec, m: cover_homology(spec, m),
    "pres_class": lambda spec, m: spec.pres.homology_class((1,), m),
    "closed_class": lambda spec, m: homology_class((1,), 1, 1, m),
    "open_class": lambda spec, m: homology_class((1,), 1, 1, m, "open"),
}


@pytest.mark.parametrize("m", [2.0, "2", True], ids=repr)
@pytest.mark.parametrize("entry", list(MODULUS_ENTRIES))
def test_every_modulus_entry_point_wants_an_int(entry, m, monkeypatch):
    # one shared check, before any work: no entry point enumerates an
    # orbit first (a derived cover used to enumerate every coset of 2.0)
    spec = identity_cover(1, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated before the modulus check")

    monkeypatch.setattr(covers, "orbit_enumerate", refuse)
    with pytest.raises(InvalidInputError, match="must be an int"):
        MODULUS_ENTRIES[entry](spec, m)


# -- transversals and serialization


def test_shortlex_transversal(cover11):
    assert tuple(_table(identity_cover(1, 1)).twords) == ((),)
    assert tuple(_table(cover11).twords) == ((), (1,))
    assert tuple(_table(identity_cover(2, 0)).loop_words) == \
        ((1,), (2,), (3,), (4,))
    assert tuple(_table(cover11).loop_words) == ((2,), (1, 1), (1, 2, -1))


def naive_closure(ops, gens):
    """Deck group elements in breadth-first discovery order."""
    elements = [ops.identity]
    seen = {ops.identity}
    frontier = [ops.identity]
    while frontier:
        nxt = []
        for e in frontier:
            for s in gens:
                f = ops.mul(e, s)
                if f not in seen:
                    seen.add(f)
                    elements.append(f)
                    nxt.append(f)
        frontier = nxt
    return elements


SMALL = {
    "h202": lambda: homology_cover(2, 0, 2),
    "h113": lambda: homology_cover(1, 1, 3),
    "perm4": lambda: perm_cover(1, 1, 4, [(1, 2, 3, 0), (1, 0, 2, 3)]),
    "derived11": lambda: derived_cover(identity_cover(1, 1), 2),
}
SMALL_COVERS = pytest.mark.parametrize("make", list(SMALL.values()),
                                       ids=list(SMALL))


@SMALL_COVERS
def test_deck_group_in_discovery_order(make):
    spec = make()
    group = spec.group
    want = naive_closure(group.ops, spec.images)
    assert list(group.elements) == want
    assert group.d == len(want)


CAYLEY = dict(SMALL, **{
    "derived112": lambda: derived_cover(homology_cover(1, 1, 2), 2),
    "derived-s3": lambda: derived_cover(s3_cover(), 2),
})


@pytest.mark.parametrize("name", list(CAYLEY))
def test_deck_group_cayley_graph(name):
    """The records of the one enumeration against the group operations:
    the right action of each image, the inverse permutations, the index of
    each inverse, the breadth-first words in shortlex order; a derived
    cover's permutations are its group's right action."""
    spec = CAYLEY[name]()
    assert spec._table is None  # the closed-base check reads the graph
    group, ops = spec.group, spec.group.ops
    els = group.elements
    idx = {e: i for i, e in enumerate(els)}
    assert len(group.act) == len(group.back) == group.N == len(spec.images)
    for j, img in enumerate(spec.images):
        assert group.act[j] == tuple(idx[ops.mul(x, img)] for x in els)
        assert all(group.back[j][b] == a
                   for a, b in enumerate(group.act[j]))
    for a, x in enumerate(els):
        assert els[group.inverse[a]] == ops.inv(x)
        assert group.trace(0, group.words[a]) == a
    keys = [(len(w), w) for w in group.words]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert all(x > 0 for w in group.words for x in w)
    assert {col[0] for col in group.act} == {idx[s] for s in spec.images}
    if name.startswith("derived"):
        assert spec.images == group.act


@SMALL_COVERS
def test_schreier_generators_rewrite_to_their_own_loop(make):
    """The i-th Schreier generator crosses the i-th loop edge once, and
    otherwise only tree edges, so it rewrites to the one letter i+1."""
    spec = make()
    t = _table(spec)
    for i, w in enumerate(t.loop_words):
        assert t.rewrite(0, w) == (0, (i + 1,))


@pytest.mark.parametrize("word", [(5,), (1, -5)])
def test_rewrite_refuses_letters_outside_the_alphabet(h2, word):
    for read in (h2.group.trace, _table(h2).rewrite):
        with pytest.raises(InvalidInputError, match="outside cover alphabet"):
            read(0, word)


def _closed_at(t, sheet, word):
    """`word` read from `sheet`, closed up by the transversal words back to
    `sheet`; the appended letters cross tree edges only."""
    end = t.group.trace(sheet, word)
    return wmul(word, winv(t.twords[end]), t.twords[sheet])


def _assert_class_table(spec, old, sheet, word):
    """The class table at `sheet` against the record elimination of the
    word conjugated by the sheet's transversal word, over Z; the survivor
    lookup against the record elimination of that same subgroup word."""
    t = _table(spec)
    chain = _chain(spec)
    tw = t.twords[sheet]
    conj = wmul(tw, word, winv(tw))
    assert list(chain.closed_class(sheet, word)) == old.class_int(conj)
    end, ids = t.rewrite(0, conj)
    assert end == 0
    assert list(_signed_sum(chain.survivor_rows, ids)) == \
        old.survivor_coords(conj)


@SMALL_COVERS
def test_class_table_matches_record_elimination(make):
    """Every Schreier loop word, and every piece generator of the catalog
    read from every sheet, closed up by a power and by the transversal."""
    spec = make()
    t = _table(spec)
    old = RecordElimination(spec)
    assert old.survivors == _chain(spec).survivors
    gens = [gw for mc in multicurve_catalog(spec.g, spec.n)
            for piece in mc.pieces for gw in piece.gens]
    for sheet in range(t.d):
        for w in t.loop_words:
            _assert_class_table(spec, old, sheet, w)
        for gw in gens:
            _assert_class_table(spec, old, sheet,
                                wpow(gw, spec.order_of(gw)))
            _assert_class_table(spec, old, sheet, _closed_at(t, sheet, gw))


@functools.lru_cache(maxsize=None)
def _class_cover(name):
    spec = SMALL[name]()
    return spec, RecordElimination(spec)


@given(st.sampled_from(sorted(SMALL)),
       st.integers(0, 15),
       st.lists(st.integers(1, 4).flatmap(
           lambda a: st.sampled_from([a, -a])), max_size=14))
def test_class_table_on_drawn_words(name, sheet, letters):
    """A drawn word read from a drawn sheet: closed up, its class matches
    the record elimination; left open, closed_class refuses it."""
    spec, old = _class_cover(name)
    t = _table(spec)
    sheet %= t.d
    word = tuple(x for x in letters if abs(x) <= t.N)
    _assert_class_table(spec, old, sheet, _closed_at(t, sheet, word))
    if spec.group.trace(sheet, word) != sheet:
        with pytest.raises(LevelNerveError, match="cover subgroup"):
            _chain(spec).closed_class(sheet, word)


@given(st.sampled_from(sorted(SMALL)),
       st.integers(0, 15),
       st.lists(st.integers(1, 4).flatmap(
           lambda a: st.sampled_from([a, -a])), max_size=10),
       st.lists(st.tuples(st.integers(0, 12), st.integers(1, 4),
                          st.sampled_from([1, -1])), min_size=1, max_size=4))
def test_trace_reads_an_unreduced_word_as_its_reduction(name, sheet, letters,
                                                        pairs):
    """trace steps through the letters as given: cancelling pairs x, -x
    put anywhere into a drawn word leave its end sheet where the reduced
    word ends."""
    group = _class_cover(name)[0].group
    sheet %= group.d
    word = [x for x in letters if abs(x) <= group.N]
    for at, a, sign in pairs:
        x = sign * ((a - 1) % group.N + 1)
        at %= len(word) + 1
        word[at:at] = [x, -x]
    assert wreduce(word) != tuple(word)
    assert group.trace(sheet, word) == group.trace(sheet, wreduce(word))


@pytest.mark.parametrize("letter", [True, 1.0, "1", None, 0, 5, -5])
def test_trace_refuses_a_bad_letter(h2, letter):
    with pytest.raises(InvalidInputError):
        h2.group.trace(0, (1, letter, -1))


def test_class_at_refuses_a_word_that_does_not_close(h2):
    chain = _chain(h2)
    for sheet in range(h2.degree):
        with pytest.raises(LevelNerveError, match="cover subgroup"):
            chain.closed_class(sheet, (1,))


@pytest.mark.parametrize("make, m", [
    (lambda: homology_cover(2, 0, 2), 2),
    (lambda: homology_cover(1, 1, 3), 3),
], ids=["h202", "h113"])
def test_coset_representative_is_the_least_product(make, m):
    """The row-by-row search finds the least of all deck products, on
    every twist matrix and every product of two of them.  Each twist
    matrix also enters with all but its first 2 or 8 rows zeroed: then many
    deck matrices tie on the first rows of the product, so the search has
    to narrow them down over several rows."""
    spec = make()
    hom = cover_homology(spec, m)
    dim = hom.space.dim
    mats = [mcg_action_on_cover(spec, tw, m)
            for tw in twist_automorphisms(spec.g, spec.n)]
    cases = mats + [hom.space.mat_mul(A, B) for A in mats for B in mats]
    cases += [tuple(row if j < k else (0,) * dim
                    for j, row in enumerate(T))
              for T in mats for k in (2, 8)]
    for M in cases:
        want = min(hom.space.mat_mul(D, M) for D in hom.matrices)
        assert deck_coset_representative(hom, M) == want


def test_shortlex_transversal_against_bfs(h2):
    """Breadth-first over the letters x1 < x1^-1 < x2 < ... on the deck
    group, words indexed like the group elements."""
    group = h2.group
    words = {group.identity: ()}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for e in frontier:
            for j, x in enumerate(h2.images, 1):
                for s, y in ((j, x), (-j, group.ops.inv(x))):
                    f = group.ops.mul(e, y)
                    if f not in words:
                        words[f] = words[e] + (s,)
                        nxt.append(f)
        frontier = nxt
    assert tuple(_table(h2).twords) == tuple(words[e]
                                            for e in group.elements)


def test_deck_group_cap(monkeypatch):
    pres = presentation(2, 0)
    images = [pres.homology_class((j,), 2)
              for j in range(1, pres.cover_rank() + 1)]
    monkeypatch.setattr(covers, "DEFAULT_MAX_DEGREE", 15)
    with pytest.raises(ResourceLimitError):
        CoverSpec(2, 0, images, AbelianOps((2,) * 4))
    monkeypatch.setattr(covers, "DEFAULT_MAX_DEGREE", 16)
    spec = CoverSpec(2, 0, images, AbelianOps((2,) * 4))
    assert spec.group.d == 16


def test_data_round_trip(h2, cover11):
    for spec in [h2, cover11, identity_cover(2, 1)]:
        data = cover_spec_to_data(spec)
        back = cover_spec_from_data(data)
        assert back.degree == spec.degree
        assert back.kind == spec.kind
        assert back.images == spec.images
        assert (back.g, back.n) == (spec.g, spec.n)


def test_data_u1_consistency(cover11):
    data = cover_spec_to_data(cover11)
    data["images"]["u1"] = list(ID2)
    assert cover_spec_from_data(data).degree == 2
    data["images"]["u1"] = list(SWAP)
    with pytest.raises(InvalidCoverError):
        cover_spec_from_data(data)


@pytest.mark.parametrize("order", ["abc", -3, 0, True, 2.5], ids=repr)
def test_data_declared_order_must_be_a_positive_int(order):
    data = cover_spec_to_data(abelian_cover(1, 1, (2, 2), [(1, 0), (1, 0)],
                                            declared_order=4))
    data["group"]["order"] = order
    with pytest.raises(InvalidInputError):
        cover_spec_from_data(data)


def test_data_declared_order_round_trips():
    spec = abelian_cover(1, 1, (2, 2), [(1, 0), (1, 0)], declared_order=4)
    data = cover_spec_to_data(spec)
    assert data["group"]["order"] == 4
    back = cover_spec_from_data(data)
    assert back.declared_order == 4 and back.proper_image
    assert cover_spec_to_data(back) == data


def test_data_missing_letters():
    data = cover_spec_to_data(identity_cover(2, 0))
    del data["images"]["b2"]
    with pytest.raises(InvalidInputError):
        cover_spec_from_data(data)
    bad = cover_spec_to_data(identity_cover(2, 0))
    bad["group"]["kind"] = "matrix"
    with pytest.raises(InvalidInputError):
        cover_spec_from_data(bad)


# --------------------------------------------------------------------------
# the inverse of the chord form


def test_unimodular_inverse_pins():
    assert _unimodular_inverse([[0, 1], [-1, 0]]) == [[0, -1], [1, 0]]
    assert _unimodular_inverse([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    for P in ([[2, 0], [0, 1]], [[0, 0], [0, 1]]):
        with pytest.raises(LevelNerveError):
            _unimodular_inverse(P)


@st.composite
def unimodular(draw):
    """A product of elementary integer matrices: row additions, swaps and
    sign changes applied to the identity."""
    n = draw(st.integers(1, 5))
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(["add", "swap", "negate"]))
        if op == "add" and i != j:
            q = draw(st.integers(-4, 4))
            P[i] = [a + q * b for a, b in zip(P[i], P[j])]
        elif op == "swap":
            P[i], P[j] = P[j], P[i]
        elif op == "negate":
            P[i] = [-a for a in P[i]]
    return P


@given(unimodular())
def test_unimodular_inverse_matches_sympy(P):
    want = sympy.Matrix(P).inv().tolist()
    assert _unimodular_inverse(P) == [[int(x) for x in row] for row in want]


def _assert_standard_frame(P):
    U, V = _symplectic_rows(P)
    J = [list(row) for row in SympSpace(len(P) // 2, 0).J]
    assert mat_mul(mat_mul(U, P), [list(col) for col in zip(*U)]) == J
    assert mat_mul(U, V) == mat_identity(len(P))


@pytest.mark.parametrize("P", [
    # Pfaffians 2*5 - 3*3 = 1 and 5*19 - 2*48 = -1, with no entry +-1, so
    # the first pivot is 2 and a gcd step runs on each side of it
    [[0, 2, 3, 0], [-2, 0, 0, 3], [-3, 0, 0, 5], [0, -3, -5, 0]],
    [[0, 5, 2, 0], [-5, 0, -3, 48], [-2, 3, 0, 19], [0, -48, -19, 0]],
])
def test_symplectic_rows_reduce_a_form_with_no_unit_entry(P):
    _assert_standard_frame(P)


@given(unimodular().filter(lambda A: len(A) % 2 == 0))
def test_symplectic_rows_reduce_every_unimodular_form(A):
    # A J A^T is every alternating unimodular form of its size
    J = [list(row) for row in SympSpace(len(A) // 2, 0).J]
    _assert_standard_frame(mat_mul(mat_mul(A, J), [list(c) for c in zip(*A)]))


def test_matrix_self_checks_refuse_a_perturbed_class(monkeypatch):
    # the deck and twist matrices are checked through the symplectic
    # record; a class row moved by one makes them fail the check
    spec = abelian_cover(2, 0, (2,), [(1,), (0,), (0,), (0,)])
    twist = twist_automorphisms(2, 0)[0]
    assert invariance_check(spec, [twist])
    cover_homology(spec, 2)
    chain_type = type(_chain(spec))
    real = chain_type.closed_class

    def moved(self, sheet, word):
        c = real(self, sheet, word)
        return (c[0] + 1,) + c[1:]

    monkeypatch.setattr(chain_type, "closed_class", moved)
    with pytest.raises(LevelNerveError, match="induced matrix is symplectic"):
        mcg_action_on_cover(spec, twist, 2)
    fresh = abelian_cover(2, 0, (2,), [(1,), (0,), (0,), (0,)])
    with pytest.raises(LevelNerveError, match="deck matrix is symplectic"):
        cover_homology(fresh, 2)


DECK = {
    "h112": (lambda: homology_cover(1, 1, 2), 2),
    "h113": (lambda: homology_cover(1, 1, 3), 3),
    "h113-z": (lambda: homology_cover(1, 1, 3), 0),
    "h202": (lambda: homology_cover(2, 0, 2), 2),
    "abelian20": (lambda: abelian_cover(2, 0, (3, 2),
                                        [(1, 0), (0, 1), (2, 1), (0, 0)]), 3),
    "s3": (s3_cover, 2),
    "derived11": (lambda: derived_cover(identity_cover(1, 1), 2), 2),
}


@pytest.mark.parametrize("name", list(DECK))
def test_deck_matrices_match_the_sheet_by_sheet_reading(name):
    # composed from the generator images along the Cayley graph, every
    # deck matrix equals the one read from the cover at its own sheet
    make, m = DECK[name]
    spec = make()
    assert cover_homology(spec, m).matrices == \
        deck_matrices_by_sheets(make(), m)


def test_class_of_reads_a_word_given_as_a_list(h2):
    # the walk memo keys words as tuples; a list reads the same class
    hom = cover_homology(h2, 2)
    for w in _table(h2).loop_words[:5]:
        assert hom.class_of(list(w)) == hom.class_of(w)


def test_deck_matrices_read_the_generator_sheets_only(monkeypatch):
    # a fresh level-2 genus-2 homology cover has 4 generator images and 16
    # sheets: its deck homology rewrites from their 4 sheets and sheet 0
    spec = homology_cover(2, 0, 2)
    table_type = type(_table(spec))
    rewrite = table_type.rewrite
    sheets = set()

    def counting(self, start, word):
        sheets.add(start)
        return rewrite(self, start, word)

    monkeypatch.setattr(table_type, "rewrite", counting)
    cover_homology(spec, 2)
    group = spec.group
    assert group.d == 16
    assert sheets == {0} | {group.inverse[col[0]] for col in group.act}
    assert len(sheets) <= 5


# sha256 of repr(matrices) of the deck action on H_1 over Z/2 of the
# 128-sheet derived cover of homology_cover(1, 1, 2), filled genus 33,
# recorded when every deck matrix was a dense product of row tuples
DERIVED112_MATRICES = (
    "d482b831d35aac56fb11993753530a8d06ccf0f4fa3dfd44b4366e8fce3d1251")


def test_deck_matrices_of_the_128_sheet_cover_are_pinned():
    hom = cover_homology(derived_cover(homology_cover(1, 1, 2), 2), 2)
    assert (len(hom.matrices), hom.g_K) == (128, 33)
    digest = hashlib.sha256(repr(hom.matrices).encode()).hexdigest()
    assert digest == DERIVED112_MATRICES


def test_deck_products_form_no_dense_matrix_product(monkeypatch):
    # at m = 2 the 11 deck matrices of a fresh level-2 genus-2 homology
    # cover that are not generator images or the identity are products on
    # packed rows: SympSpace.mat_mul runs only in checked_matrix's inverse
    # self-check, once for each record it makes
    spec = homology_cover(2, 0, 2)
    calls = []
    real = SympSpace.mat_mul

    def counting(self, F, G):
        calls.append(1)
        return real(self, F, G)

    monkeypatch.setattr(SympSpace, "mat_mul", counting)
    misses = checked_matrix.cache_info().misses
    cover_homology(spec, 2)
    made = checked_matrix.cache_info().misses - misses
    assert len(calls) == made <= 4


@pytest.mark.parametrize("m", [2, 3])
def test_deck_matrices_form_each_edge_product_once(monkeypatch, m):
    # the Cayley graph of a level-2 genus-2 homology cover has 16 elements
    # and 4 distinct images: 15 tree edges give the elements past the
    # identity, and each of the 49 other edges is formed once to check it;
    # at m = 2 a product runs f2_image once per row of the 34-row matrix
    spec = homology_cover(2, 0, 2)
    hom = cover_homology(spec, m)
    cols = {col[0]: col for col in spec.group.act}
    images = tuple(hom.matrices[s] for s in cols)
    calls = []
    if m == 2:
        real = symplectic.f2_image
        monkeypatch.setattr(symplectic, "f2_image",
                            lambda x, rows: calls.append(1) or real(x, rows))
    else:
        real = SympSpace.mat_mul
        monkeypatch.setattr(SympSpace, "mat_mul",
                            lambda self, F, G: calls.append(1)
                            or real(self, F, G))
    made = symplectic.deck_matrices.__wrapped__(
        hom.g_K, m, images, tuple(cols.values()))
    assert made == hom.matrices
    assert (spec.group.d, len(images), hom.rank) == (16, 4, 34)
    assert len(calls) == 64 * (34 if m == 2 else 1)


def test_deck_matrices_refuse_a_generator_that_breaks_a_relation(
        monkeypatch):
    # the classes read from the sheet of one generator image are moved by
    # an integer symplectic matrix: that image's matrix stays symplectic,
    # but the products no longer respect the group
    spec = homology_cover(2, 0, 2)
    group = spec.group
    target = group.inverse[group.act[0][0]]
    chain_type = type(_chain(spec))
    real = chain_type.closed_class

    def moved(self, sheet, word):
        c = real(self, sheet, word)
        if sheet != target:
            return c
        return (c[1], -c[0]) + c[2:]

    monkeypatch.setattr(chain_type, "closed_class", moved)
    with pytest.raises(LevelNerveError,
                       match="deck matrices compose as the group"):
        cover_homology(spec, 2)
