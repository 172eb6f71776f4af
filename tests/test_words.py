import random

import pytest
from hypothesis import example, given, strategies as st

from levelnerve import words
from levelnerve.errors import InvalidInputError
from levelnerve.surface import presentation
from levelnerve.words import (
    FoldedGraph,
    commutator,
    conjugate_in_free,
    cyclic_normal_form,
    cyclic_reduce,
    format_word,
    invert_basis,
    parse_word,
    solve_conjugator,
    winv,
    wmul,
    wpow,
    wreduce,
    wsub,
)
from oracles import RestartFoldedGraph


def rand_word(rng, rank, length):
    out = []
    for _ in range(length):
        x = rng.randint(1, rank) * rng.choice((1, -1))
        out.append(x)
    return wreduce(out)


def test_reduce_and_mul():
    assert wreduce([1, -1]) == ()
    assert wreduce([1, 2, -2, -1, 3]) == (3,)
    assert wmul((1, 2), (-2, -1)) == ()
    assert wmul((1,), (2,), (-1,)) == (1, 2, -1)
    assert winv((1, -2, 3)) == (-3, 2, -1)
    assert wpow((1, 2), 2) == (1, 2, 1, 2)
    assert wpow((1,), -3) == (-1, -1, -1)
    assert commutator((1,), (2,)) == (1, 2, -1, -2)
    with pytest.raises(InvalidInputError):
        wreduce([0])


def test_substitute():
    # x -> xy, y -> y evaluated on the word x y^-1
    assert wsub((1, -2), [(1, 2), (2,)]) == (1,)
    assert wsub((), [(1,)]) == ()
    for bad in ((0,), (3,), (1, -3)):
        with pytest.raises(InvalidInputError):
            wsub(bad, [(1,), (2,)])


def test_cyclic_forms():
    core, outer = cyclic_reduce((1, 2, 3, -2, -1))
    assert core == (3,) and outer == (1, 2)
    assert wmul(outer, core, winv(outer)) == (1, 2, 3, -2, -1)
    assert cyclic_normal_form((1, 2)) == cyclic_normal_form((2, 1))
    assert conjugate_in_free((1, 2), (2, 1))
    assert not conjugate_in_free((1,), (2,))
    assert cyclic_normal_form((1, -1)) == ()


def test_solve_conjugator_random():
    rng = random.Random(7)
    for _ in range(200):
        u = rand_word(rng, 3, rng.randint(0, 6))
        h = rand_word(rng, 3, rng.randint(0, 6))
        v = wmul(h, u, winv(h))
        h2 = solve_conjugator(u, v)
        assert h2 is not None
        assert wmul(h2, u, winv(h2)) == v
    assert solve_conjugator((1,), (2,)) is None


def test_parse_format():
    names = ["a1", "b1", "u1", "u2"]
    assert parse_word("a1B1u2", names) == (1, -2, 4)
    assert parse_word("1", names) == ()
    assert parse_word("", names) == ()
    assert parse_word("a1 A1", names) == ()
    assert format_word((1, -2, 4), names) == "a1B1u2"
    assert format_word((), names) == "1"
    round_trip = (1, 2, -3, -1)
    assert parse_word(format_word(round_trip, names), names) == round_trip
    with pytest.raises(InvalidInputError):
        parse_word("c1", names)
    with pytest.raises(InvalidInputError):
        parse_word("a", names)


@pytest.mark.parametrize("call", [
    lambda: parse_word(5, ["a1"]),
    lambda: format_word((3,), ["a1"]),
    lambda: format_word((0,), ["a1"]),
    lambda: wpow((1,), 1.5),
    lambda: invert_basis([(1,)], 1.0),
    lambda: FoldedGraph([(1,)], 1.5),
    lambda: wreduce([True, 2]),
    lambda: wmul((True,), (-1,)),
    lambda: wsub((True,), [(1,)]),
    lambda: wsub((1.0,), [(1,)]),
    lambda: format_word((True,), ["a1"]),
    lambda: winv((True,)),
], ids=["parse-int", "format-range", "format-zero", "wpow-float",
        "invert-float", "folded-float", "reduce-bool", "mul-bool",
        "sub-bool", "sub-float", "format-bool", "inv-bool"])
def test_words_refuse_bad_arguments(call):
    # these raised AttributeError, IndexError or TypeError, formatted
    # letter 0 as the last name, folded over a float rank, and took True
    # as letter 1 (check_int refuses a bool)
    with pytest.raises(InvalidInputError):
        call()


def test_folding_index_two_subgroup():
    # <a^2, b, a b a^-1> inside F(a, b): index 2, rank 3
    fg = FoldedGraph([(1, 1), (2,), (1, 2, -1)], 2)
    assert fg.rank() == 3
    assert fg.index() == 2
    assert fg.contains((1, 1))
    assert fg.contains((1, 2, 2, -1))
    assert not fg.contains((1,))
    assert not fg.contains((1, 2))


def test_folding_infinite_index():
    # <ab, b^-1 a>: rank 2, infinite index, contains a^2
    fg = FoldedGraph([(1, 2), (-2, 1)], 2)
    assert fg.rank() == 2
    assert fg.index() is None
    assert fg.contains((1, 1))
    assert not fg.contains((2,))
    assert not fg.generates_ambient()


def test_folding_whole_group():
    fg = FoldedGraph([(1,), (2, 1)], 2)
    assert fg.generates_ambient()
    assert fg.index() == 1
    assert fg.rank() == 2


def schreier_generators(perms):
    """Generators of the stabilizer of point 0 when letter k acts by
    perms[k-1], one per orbit point and letter, and the orbit size."""
    tree = {0: ()}
    queue = [0]
    for p in queue:
        for k, perm in enumerate(perms, 1):
            for x, q in ((k, perm[p]), (-k, perm.index(p))):
                if q not in tree:
                    tree[q] = tree[p] + (x,)
                    queue.append(q)
    gens = [wmul(tree[p], (k,), winv(tree[perm[p]]))
            for p in tree for k, perm in enumerate(perms, 1)]
    return gens, len(tree)


@st.composite
def fold_cases(draw):
    """(rank, generators, probe words, known index or None): arbitrary
    unreduced words (the empty list and trivial words included), proper
    powers, or Schreier generators of a point stabilizer."""
    rank = draw(st.integers(1, 4))
    word = st.lists(st.integers(-rank, rank).filter(bool), max_size=8)
    kind = draw(st.sampled_from(("words", "powers", "finite index")))
    index = None
    if kind == "words":
        gens = draw(st.lists(word, max_size=5))
    elif kind == "powers":
        gens = [wpow(w, k) for w, k in
                draw(st.lists(st.tuples(word, st.integers(2, 4)),
                              min_size=1, max_size=3))]
    else:
        d = draw(st.integers(1, 5))
        gens, index = schreier_generators(
            [draw(st.permutations(range(d))) for _ in range(rank)])
    return rank, gens, draw(st.lists(word, max_size=6)), index


@given(fold_cases())
@example((2, [], [[1], []], None))
@example((2, [[], [1, -1], [2, 1, -1]], [[2], [1]], None))
@example((3, [[1, 2, 1, 2, 1, 2], [3, 3]], [[1, 2], [3], [3, 3, 3, 3]],
          None))
@example((2, [[1, 1], [2], [1, 2, -1]], [[1], [1, 2, 2, -1]], 2))
def test_worklist_fold_matches_restart_fold(case):
    rank, gens, probes, index = case
    new, old = FoldedGraph(gens, rank), RestartFoldedGraph(gens, rank)
    assert (new.rank(), new.n_vertices, new.n_edges, new.index()) == \
        (old.rank(), old.n_vertices, old.n_edges, old.index())
    if index is not None:
        assert new.index() == index
    for w in [*gens, *probes, *(wpow(g, 2) for g in gens)]:
        assert new.contains(w) == old.contains(w)
    assert all(new.contains(g) for g in gens)


def test_invert_basis_known():
    # a -> ab, b -> b has inverse a -> a b^-1, b -> b
    expr = invert_basis([(1, 2), (2,)], 2)
    assert expr == [(1, -2), (2,)]


def rand_auto(rng, rank, nmoves):
    images = [(k,) for k in range(1, rank + 1)]
    for _ in range(nmoves):
        kind = rng.randint(0, 2)
        i = rng.randrange(rank)
        if kind == 0:
            images[i] = winv(images[i])
        else:
            j = rng.randrange(rank)
            if j == i:
                continue
            other = images[j] if rng.random() < 0.5 else winv(images[j])
            if kind == 1:
                images[i] = wmul(images[i], other)
            else:
                images[i] = wmul(other, images[i])
    return images


def test_invert_basis_random():
    rng = random.Random(11)
    for _ in range(150):
        rank = rng.randint(1, 8)
        images = rand_auto(rng, rank, rng.randint(0, 60))
        expr = invert_basis(images, rank)
        for k in range(1, rank + 1):
            assert wsub(expr[k - 1], images) == (k,)
            assert wsub(images[k - 1], expr) == (k,)


def test_invert_basis_rejects_non_basis():
    cases = [([(1, 1), (2,)], 2), ([(), (2,)], 2), ([(1, 2), (1, 2)], 2),
             ([(1,), (1,)], 2), ([(1,), (3,)], 2), ([(1,)], 2)]
    for images, rank in cases:
        with pytest.raises(InvalidInputError):
            invert_basis(images, rank)


def test_invert_basis_is_linear_in_image_length(monkeypatch):
    # the fold spends a bounded number of products per image letter; the
    # standard bases of genus 3, 4 and 5 have total length 25, 37 and 51
    for g in (3, 4, 5):
        model = presentation(g, 0).model
        calls = []

        def counting(*ws):
            calls.append(ws)
            return wmul(*ws)

        monkeypatch.setattr(words, "wmul", counting)
        assert invert_basis(model.std, model.N) == model._inv_expr
        monkeypatch.undo()
        assert len(calls) <= 10 * sum(map(len, model.std))
