"""Surface presentations, puncture words, and the chain twist family."""

import pytest

from levelnerve.errors import InvalidInputError
from levelnerve.surface import (
    BranchedModel,
    homology_class,
    presentation,
    twist_automorphisms,
)
from levelnerve.symplectic import SympSpace
from levelnerve.words import (
    FoldedGraph,
    commutator,
    conjugate_in_free,
    winv,
    wmul,
    wsub,
)


def sp_card(g, p):
    # |Sp_2g(Z/p)| for p prime
    out = p ** (g * g)
    for i in range(1, g + 1):
        out *= p ** (2 * i) - 1
    return out


def test_signature_validation():
    for g, n in [(0, 0), (0, 1), (0, 2), (1, 0)]:
        with pytest.raises(InvalidInputError):
            presentation(g, n)
    presentation(1, 1)
    presentation(0, 3)
    presentation(2, 0)


def test_rank_and_names():
    p = presentation(2, 2)
    assert p.N == 5
    assert p.names == ["a1", "a2", "b1", "b2", "u2"]
    assert presentation(2, 0).N == 4
    assert presentation(0, 4).N == 3


def test_parse_format_roundtrip():
    p = presentation(2, 2)
    for text in ["a1", "a1B2u2", "b1a1B1A1", "u2A2"]:
        assert p.format(p.parse(text)) == text
    assert p.parse("1") == ()
    # u1 is not a free letter: parsing it substitutes the solved word
    w = p.parse("u1")
    assert w == p.u1_word()


def test_u1_word_solves_relator():
    # the relator [a1,b1]...[ag,bg] u_n ... u_1 must vanish after substitution
    for g, n in [(1, 1), (1, 2), (2, 1), (2, 2), (0, 3), (0, 4)]:
        p = presentation(g, n)
        parts = [commutator((i,), (g + i,)) for i in range(1, g + 1)]
        tail = [(p.u_letter(j),) for j in range(n, 1, -1)]
        rel = wmul(*parts, *tail, p.u1_word())
        assert rel == ()


def test_puncture_words():
    p = presentation(1, 2)
    assert p.puncture_word(2) == (p.u_letter(2),)
    assert p.puncture_word(1) == p.u1_word()
    with pytest.raises(InvalidInputError):
        p.puncture_word(3)
    with pytest.raises(InvalidInputError):
        presentation(2, 0).puncture_word(1)


def test_homology_class_closed():
    p = presentation(2, 1)
    # interleaved coordinates (a1, b1, a2, b2)
    assert p.homology_class(p.parse("a1")) == (1, 0, 0, 0)
    assert p.homology_class(p.parse("b2")) == (0, 0, 0, 1)
    assert p.homology_class(p.parse("a1b1A1B1")) == (0, 0, 0, 0)
    assert p.homology_class(p.parse("u1")) == (0, 0, 0, 0)
    p2 = presentation(1, 2)
    assert p2.homology_class(p2.parse("u2")) == (0, 0)
    assert p2.homology_class(p2.parse("a1a1b1"), m=2) == (0, 1)


def test_homology_class_wrapper():
    assert homology_class("a1b2", 2, 0) == (1, 0, 0, 1)
    assert homology_class("a1a1", 1, 1, m=2) == (0, 0)
    assert homology_class("u2", 1, 2, target="open") == (0, 0, 1)
    assert homology_class("a1A1", 1, 1, target="open") == (0, 0)
    with pytest.raises(InvalidInputError):
        homology_class("a1", 1, 1, target="projective")


@pytest.mark.parametrize("m", [-2, -1, 1])
@pytest.mark.parametrize("target", ["closed", "open"])
def test_homology_class_refuses_bad_moduli(m, target):
    with pytest.raises(InvalidInputError, match="modulus"):
        homology_class("a1b1", 2, 0, m=m, target=target)
    if target == "closed":
        p = presentation(2, 0)
        with pytest.raises(InvalidInputError, match="modulus"):
            p.homology_class(p.parse("a1b1"), m)


def test_twist_family_size():
    assert len(twist_automorphisms(1, 1)) == 3
    assert len(twist_automorphisms(2, 0)) == 5
    assert len(twist_automorphisms(2, 2)) == 5
    assert len(twist_automorphisms(3, 0)) == 7
    assert len(twist_automorphisms(0, 3)) == 2
    assert len(twist_automorphisms(0, 5)) == 4


def test_twists_are_automorphisms_with_inverses():
    # every hyperbolic signature from (1, 1) to (3, 2), (0, 3)..(0, 6), and
    # three whose branched model has a marked point y_1 (k = 1)
    sigs = [(g, n) for g in range(1, 4) for n in range(3)
            if 2 * g - 2 + n > 0] + [(0, n) for n in range(3, 7)] \
        + [(1, 3), (2, 3), (1, 4)]
    for g, n in sigs:
        p = presentation(g, n)
        rank = p.cover_rank()
        for t in p.twists():
            assert FoldedGraph(t.images, rank).generates_ambient()
            for letter in range(1, rank + 1):
                assert t.apply_inv(t.apply((letter,))) == (letter,)
                assert t.apply(t.apply_inv((letter,))) == (letter,)


@pytest.mark.parametrize("g,n", [(3, 0), (3, 2), (4, 0), (5, 0)])
def test_to_std_table_inverts_the_standard_basis(g, n):
    model = presentation(g, n).model
    for t in range(1, model.N + 1):
        assert wsub(model._inv_expr[t - 1], model.std) == (t,)


def test_twist_homology_is_inverse_transvection():
    # independent recomputation of the matrix action on H_1
    for g, n in [(1, 1), (2, 0), (2, 2)]:
        p = presentation(g, n)
        sp = SympSpace(g, 0)
        for t in p.twists():
            assert t.hom_matrix == sp.inverse_transvection(t.curve_class)
            assert sp.is_symplectic(t.hom_matrix)
            for k in range(g):
                assert t.hom_matrix[2 * k] == \
                    p.homology_class(t.images[k])
                assert t.hom_matrix[2 * k + 1] == \
                    p.homology_class(t.images[g + k])


def test_branched_model_refuses_an_odd_nprime():
    # a presentation pads an odd number of marked points to an even one
    assert presentation(1, 3).model.nprime == 4
    with pytest.raises(InvalidInputError):
        BranchedModel(1, 3)


def test_twist_fixes_puncture_classes():
    for g, n in [(1, 2), (2, 1), (0, 4), (1, 3), (2, 3), (1, 4)]:
        p = presentation(g, n)
        for t in p.twists():
            for j in range(1, n + 1):
                uj = p.puncture_word(j)
                assert conjugate_in_free(wsub(uj, t.images), uj)


def test_closed_twist_display_respects_relator():
    # erased image words must conjugate the closed-surface relator
    for g in (2, 3):
        p = presentation(g, 0)
        rel = wmul(*[commutator((i,), (g + i,)) for i in range(1, g + 1)])
        for t in p.twists():
            image = wsub(rel, list(t.images) + [()])
            assert conjugate_in_free(image, rel)


def test_chain_classes():
    # chain of curve classes: consecutive curves meet once, others disjoint
    for g in (2, 3):
        p = presentation(g, 0)
        sp = SympSpace(g, 0)
        cls = [t.curve_class for t in p.twists()]
        assert len(cls) == 2 * g + 1
        for i in range(len(cls)):
            for j in range(i + 1, len(cls)):
                pair = abs(sp.pairing(cls[i], cls[j]))
                assert pair == (1 if j == i + 1 else 0)


def test_torus_twist_pin():
    p = presentation(1, 1)
    t2 = p.twists()[1]
    assert [p.format(w) for w in t2.images] == ["a1", "b1a1"]
    assert t2.curve_class == (-1, 0)
    assert t2.hom_matrix == ((1, 0), (1, 1))


def test_sphere_twist_pin():
    # on S_{0,3} every twist is inner; the first conjugates by u3^{-1}
    p = presentation(0, 3)
    t1 = p.twists()[0]
    assert t1.images == [(-2, 1, 2), (2,)]


def test_twist_family_generates_sp_mod_m():
    targets = [(1, 2, 2), (1, 1, 3), (2, 0, 2), (2, 0, 3)]
    for g, n, m in targets:
        sp = SympSpace(g, m)
        mats = [sp.reduce_matrix(t.hom_matrix)
                for t in twist_automorphisms(g, n)]
        assert len(sp.sp_closure(mats)) == sp_card(g, m)


def test_cover_puncture_words_closed():
    # closed surfaces expose the boundary class of the once-punctured
    # model; twists fix it up to conjugacy, so covers killing it are
    # permuted by the twist action
    p = presentation(2, 0)
    bw = p.cover_puncture_words()
    assert bw == [p.u1_word()]
    for t in p.twists():
        assert conjugate_in_free(wsub(bw[0], t.images), bw[0])


def test_open_class():
    p = presentation(2, 2)
    v = p.open_class(p.parse("a1u2A1u2"))
    assert v == (0, 0, 0, 0, 2)
    with pytest.raises(InvalidInputError):
        p.open_class((p.N + 1,))
