import math
import random
from itertools import combinations, product

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_smith

from levelnerve.errors import InvalidInputError, ResourceLimitError
from levelnerve.symplectic import (
    SympSpace,
    SympSubgroup,
    _rref_mod_p,
    check_ints,
    checked_matrix,
    hnf,
    int_row_kernel,
    mat_identity,
    mat_mul,
    mod_row_kernel,
    pack_f2,
    rref_transform,
    snf_diagonal,
    snf_sparse,
    sp_group,
    vec_mat,
)
from oracles import (forest_by_queue, lattice_reduce, module_map_report,
                     rref_by_lists, rref_transform_by_lists, snf,
                     snf_diagonal_dense)

moduli = st.sampled_from([0, 2, 3, 4, 6])


def det(M):
    M = [list(r) for r in M]
    n = len(M)
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        if M[0][j]:
            minor = [row[:j] + row[j + 1:] for row in M[1:]]
            total += (-1) ** j * M[0][j] * det(minor)
    return total


def minors_gcd_divisors(M):
    """Independent Smith-divisor oracle: d_1*...*d_k = gcd of k x k minors."""
    r, c = len(M), len(M[0])
    prev = 1
    divs = []
    for k in range(1, min(r, c) + 1):
        gk = 0
        for rows in combinations(range(r), k):
            for cols in combinations(range(c), k):
                sub = [[M[i][j] for j in cols] for i in rows]
                gk = math.gcd(gk, det(sub))
        if gk == 0:
            divs.append(0)
        else:
            divs.append(gk // prev)
            prev = gk
    out = []
    for d in divs:
        out.append(d if not out or out[-1] != 0 else 0)
    return tuple(out)


def test_snf_pinned_examples():
    D, U, V = snf([[3, 0], [0, 5]])
    assert (D[0][0], D[1][1]) == (1, 15)
    D, U, V = snf([[2, 4], [6, 8]])
    assert (D[0][0], D[1][1]) == (2, 4)


def test_snf_random_against_minors_oracle():
    rng = random.Random(3)
    for _ in range(60):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        M = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
        D, U, V = snf(M)
        got = snf_diagonal(M)
        assert got == minors_gcd_divisors(M)
        assert mat_mul(mat_mul(U, M), V) == D
        assert abs(det(U)) == 1
        assert abs(det(V)) == 1
        for i in range(min(r, c) - 1):
            a, b = D[i][i], D[i + 1][i + 1]
            assert a >= 0 and b >= 0
            if b:
                assert a and b % a == 0


def test_hnf_canonical_under_row_mixing():
    rng = random.Random(5)
    for _ in range(40):
        r, c = rng.randint(1, 3), rng.randint(1, 4)
        M = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        base = hnf(M)
        mixed = [list(row) for row in M]
        for _ in range(6):
            i, j = rng.randrange(r), rng.randrange(r)
            if i != j:
                q = rng.randint(-3, 3)
                mixed[i] = [a + q * b for a, b in zip(mixed[i], mixed[j])]
            elif rng.random() < 0.5:
                mixed[i] = [-a for a in mixed[i]]
        rng.shuffle(mixed)
        assert hnf(mixed) == base


def test_hnf_membership_reduction():
    L = hnf([[2, 1], [0, 3]])
    assert not any(lattice_reduce(L, (2, 1)))
    assert not any(lattice_reduce(L, (2, 4)))
    assert any(lattice_reduce(L, (1, 0)))


def test_int_kernel():
    rng = random.Random(9)
    for _ in range(40):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        M = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
        ker = int_row_kernel(M)
        for x in ker:
            assert all(sum(x[i] * M[i][j] for i in range(r)) == 0
                       for j in range(c))
        rank = sum(1 for d in snf_diagonal(M) if d)
        assert len(ker) == r - rank


def test_mod_kernel():
    # x * (2,0) = 0 mod 4 on the first coordinate
    ker = mod_row_kernel([[2], [0]], 4)
    space = {tuple(x % 4 for x in v) for v in ker}
    # kernel mod 4 is generated by (2,0) and (0,1)
    fg = hnf(ker)
    assert not any(lattice_reduce(fg, (2, 0)))
    assert not any(lattice_reduce(fg, (0, 1)))
    assert any(lattice_reduce(fg, (1, 0)))
    assert space  # nonempty


def test_space_validation():
    with pytest.raises(InvalidInputError):
        SympSpace(1, 1)
    with pytest.raises(InvalidInputError):
        SympSpace(1, -2)
    with pytest.raises(InvalidInputError):
        SympSpace(-1, 2)


@pytest.mark.parametrize("g, m", [(True, 2), (1, True), (1, False),
                                  (1.0, 2), (1, 2.0), ("1", 2), (1, "2")],
                         ids=repr)
def test_space_wants_int_genus_and_modulus(g, m):
    # a bool is an int to Python, but neither a genus nor a modulus
    with pytest.raises(InvalidInputError, match="must be an int"):
        SympSpace(g, m)


def test_pairing_basics():
    sp = SympSpace(2, 5)
    assert sp.pairing(sp.basis_a(1), sp.basis_b(1)) == 1
    assert sp.pairing(sp.basis_b(1), sp.basis_a(1)) == 4
    assert sp.pairing(sp.basis_a(1), sp.basis_b(2)) == 0
    spz = SympSpace(1, 0)
    assert spz.pairing(spz.basis_b(1), spz.basis_a(1)) == -1


def brute_is_primitive(space, gens):
    """Retraction-search oracle: a subgroup is a direct summand iff some
    module map H -> S restricts to the identity on S."""
    m = space.m
    elems = {space.zero()}
    frontier = [space.zero()]
    while frontier:
        new = []
        for v in frontier:
            for g in gens:
                w = space.reduce(tuple(x + y for x, y in zip(v, g)))
                if w not in elems:
                    elems.add(w)
                    new.append(w)
        frontier = new
    elems = sorted(elems)
    canon = space.subgroup(gens).canonical_gens()
    for images in product(elems, repeat=space.dim):
        ok = True
        for s in canon:
            r = [0] * space.dim
            for i, coef in enumerate(s):
                for j in range(space.dim):
                    r[j] += coef * images[i][j]
            if space.reduce(r) != space.reduce(s):
                ok = False
                break
        if ok:
            return True
    return not canon


def test_primitivity_pinned():
    sp = SympSpace(2, 4)
    two_a1 = tuple(2 * x for x in sp.basis_a(1))
    assert not sp.subgroup([two_a1]).is_primitive()
    assert not brute_is_primitive(sp, [two_a1])
    assert sp.subgroup([sp.basis_a(1)]).is_primitive()
    assert brute_is_primitive(sp, [sp.basis_a(1)])
    assert not sp.subgroup([sp.basis_a(1),
                            (0, 0, 2, 0)]).is_primitive()


def test_primitivity_random_against_retraction_oracle():
    rng = random.Random(17)
    for _ in range(30):
        g = rng.choice([1, 2])
        m = rng.choice([2, 3, 4])
        sp = SympSpace(g, m)
        k = rng.randint(1, 2)
        gens = [tuple(rng.randrange(m) for _ in range(sp.dim))
                for _ in range(k)]
        sub = sp.subgroup(gens)
        if sub.order > 16:
            continue
        assert sub.is_primitive() == brute_is_primitive(sp, gens)


def test_primitivity_over_Z():
    sp = SympSpace(1, 0)
    assert sp.subgroup([(1, 0)]).is_primitive()
    assert not sp.subgroup([(2, 0)]).is_primitive()
    assert sp.subgroup([(1, 0), (0, 1)]).is_primitive()
    assert sp.subgroup([]).is_primitive()
    assert sp.subgroup([(1, 0)]).order is None
    assert sp.subgroup([]).order == 1


def test_subgroup_invariants():
    sp = SympSpace(2, 4)
    sub = sp.subgroup([(2, 0, 0, 0)])
    assert sub.invariants == (2,)
    assert sub.order == 2
    assert sub.rank == 1
    assert sub.contains((2, 0, 0, 0))
    assert not sub.contains((1, 0, 0, 0))
    full = sp.subgroup([sp.basis_a(1), sp.basis_b(1),
                        sp.basis_a(2), sp.basis_b(2)])
    assert full.order == 4 ** 4
    assert full.invariants == (4, 4, 4, 4)


def test_subgroup_canonical_equality():
    sp = SympSpace(2, 3)
    s1 = sp.subgroup([(1, 1, 0, 0), (0, 0, 1, 0)])
    s2 = sp.subgroup([(1, 1, 1, 0), (0, 0, 2, 0)])
    assert s1 == s2
    assert s1.key() == s2.key()


def brute_sp_order(space):
    count = 0
    n = space.dim
    for entries in product(range(space.m), repeat=n * n):
        F = tuple(tuple(entries[i * n + j] for j in range(n))
                  for i in range(n))
        if space.is_symplectic(F):
            count += 1
    return count


def sp_order_formula(g, p):
    """|Sp_2g(Z/p)| for prime p."""
    out = p ** (g * g)
    for i in range(1, g + 1):
        out *= p ** (2 * i) - 1
    return out


def test_transvections_are_symplectic_and_even():
    sp = SympSpace(3, 4)
    rng = random.Random(23)
    for _ in range(20):
        v = tuple(rng.randrange(4) for _ in range(6))
        T = sp.transvection(v)
        assert sp.is_symplectic(T)
        Tm = sp.transvection(tuple(-x for x in v))
        assert T == Tm
        Ti = sp.inverse_transvection(v)
        assert sp.mat_mul(T, Ti) == sp.identity_matrix()


def test_sp_closure_g1_m2_against_bruteforce():
    sp = SympSpace(1, 2)
    gens = [sp.transvection(v) for v in sp.chain_vectors()]
    group = sp.sp_closure(gens)
    assert len(group) == 6
    assert brute_sp_order(sp) == 6


def test_sp_closure_g1_m3_against_bruteforce():
    sp = SympSpace(1, 3)
    gens = [sp.transvection(v) for v in sp.chain_vectors()]
    group = sp.sp_closure(gens)
    assert len(group) == 24
    assert brute_sp_order(sp) == 24


def test_sp_closure_g2_m2_against_bruteforce():
    sp = SympSpace(2, 2)
    gens = [sp.transvection(v) for v in sp.chain_vectors()]
    group = sp.sp_closure(gens)
    assert len(group) == 720
    assert brute_sp_order(sp) == 720
    assert sp_order_formula(2, 2) == 720


def test_sp_closure_g2_m3_against_order_formula():
    sp = SympSpace(2, 3)
    gens = [sp.transvection(v) for v in sp.chain_vectors()]
    group = sp.sp_closure(gens)
    assert len(group) == 51840
    assert sp_order_formula(2, 3) == 51840


def test_orbits_of_nonzero_vectors():
    # the transvections along the chain curves move basis_a(1) onto
    # every nonzero vector of (Z/m)^{2g}
    for g, m, size in ((2, 2, 15), (1, 3, 8)):
        sp = SympSpace(g, m)
        gens = [sp.transvection(v) for v in sp.chain_vectors()]
        res = orbit_enumerate(sp.basis_a(1), gens,
                              lambda F, v: sp.mat_apply(v, F))
        assert len(res.elements) == size


def test_sp_closure_cap_and_generator_check():
    sp = SympSpace(1, 3)
    gens = [sp.transvection(v) for v in sp.chain_vectors()]
    assert len(sp.sp_closure(gens, cap=24)) == 24
    with pytest.raises(ResourceLimitError, match="partial count 23"):
        sp.sp_closure(gens, cap=23)
    with pytest.raises(InvalidInputError, match="not symplectic"):
        sp.sp_closure([[[1, 1], [0, 2]]])
    with pytest.raises(InvalidInputError):
        SympSpace(1, 0).sp_closure(gens)


def test_module_map_report():
    rep = module_map_report([(1, 0), (0, 1)], 2, 4)
    assert rep == {"injective": True, "coker_free": True, "coker_rank": 0}
    rep = module_map_report([(1, 0)], 2, 4)
    assert rep == {"injective": True, "coker_free": True, "coker_rank": 1}
    rep = module_map_report([(2, 0)], 2, 4)
    assert not rep["injective"]
    assert not rep["coker_free"]
    rep = module_map_report([(1, 0)], 2, 0)
    assert rep == {"injective": True, "coker_free": True, "coker_rank": 1}
    rep = module_map_report([(2, 0)], 2, 0)
    assert rep["injective"]
    assert not rep["coker_free"]


def test_perp_and_radical():
    sp = SympSpace(2, 3)
    a1 = sp.subgroup([sp.basis_a(1)])
    perp = a1.perp()
    assert perp.contains(sp.basis_a(1))
    assert perp.contains(sp.basis_a(2))
    assert perp.contains(sp.basis_b(2))
    assert not perp.contains(sp.basis_b(1))
    assert perp.rank == 3
    assert a1.radical() == a1
    assert a1.is_isotropic()

    hyp = sp.subgroup([sp.basis_a(1), sp.basis_b(1)])
    assert not hyp.is_isotropic()
    assert hyp.radical().rank == 0

    sp4 = SympSpace(1, 4)
    iso = sp4.subgroup([(2, 0), (0, 2)])
    assert iso.is_isotropic()
    assert iso.radical() == iso

    for m in (0, 2, 4):
        trivial = SympSpace(2, m).subgroup([])
        assert trivial.perp() == trivial.space.subgroup(
            trivial.space.identity_matrix())
        assert trivial.radical() == trivial


@given(st.integers(1, 3), moduli, st.data())
def test_radical_is_intersection_with_perp(g, m, data):
    sp = SympSpace(g, m)
    vec = st.lists(st.integers(-5, 5), min_size=sp.dim, max_size=sp.dim)
    sub = sp.subgroup(data.draw(st.lists(vec, max_size=sp.dim + 1)))
    rad = sub.radical()
    assert rad == sub.intersection(sub.perp())
    assert sub.is_isotropic() == (rad == sub)


def test_intersection_and_sum():
    sp = SympSpace(2, 2)
    s1 = sp.subgroup([sp.basis_a(1), sp.basis_b(1)])
    s2 = sp.subgroup([sp.basis_a(1), sp.basis_a(2)])
    inter = s1.intersection(s2)
    assert inter == sp.subgroup([sp.basis_a(1)])
    tot = s1.add(s2)
    assert tot.rank == 3


def test_intersection_and_sum_refuse_other_spaces():
    # (Z/2)^2 against (Z/3)^2: the sum used to return all of (Z/2)^2
    s = SympSpace(1, 2).subgroup([(1, 0)])
    t = SympSpace(1, 3).subgroup([(0, 1)])
    for op in (s.add, s.intersection):
        with pytest.raises(InvalidInputError, match="different spaces"):
            op(t)
    # an equal space built separately is the same space
    assert s.add(SympSpace(1, 2).subgroup([(0, 1)])).order == 4


def test_packed_membership_matches_dense():
    sp = SympSpace(2, 2)
    vecs = list(product((0, 1), repeat=4))
    for gens in ([], [(1, 1, 0, 1)], [(1, 0, 1, 0), (0, 1, 1, 1)], vecs):
        sub = sp.subgroup(gens)
        assert [p for p, _ in sub.f2_rows()] == [
            1 << next(j for j, a in enumerate(r) if a)
            for r in sub.canonical_gens()]
        for v in vecs:
            # pack_f2 reads unreduced entries mod 2
            w = tuple(a + 2 * k for k, a in enumerate(v))
            assert sub.contains_f2(pack_f2(w)) == sub.contains(v)
    with pytest.raises(InvalidInputError, match="modulus 2"):
        SympSpace(2, 3).subgroup([(1, 0, 0, 0)]).f2_rows()


def test_apply_matrix():
    sp = SympSpace(1, 5)
    T = sp.transvection(sp.basis_a(1))
    # b1 -> b1 + <b1, a1> a1 = b1 - a1
    assert sp.mat_apply(sp.basis_b(1), T) == (4, 1)
    sub = sp.subgroup([sp.basis_b(1)])
    img = sub.apply(T)
    assert img.contains((4, 1))


def drawn_subgroup(sp, data):
    vec = st.lists(st.integers(-5, 5), min_size=sp.dim, max_size=sp.dim)
    return sp.subgroup(data.draw(st.lists(vec, max_size=sp.dim + 1)))


def drawn_sp_matrix(sp, data):
    """A product of one to four sp_group matrices."""
    gens = sp_group(sp)
    F = sp.identity_matrix()
    for j in data.draw(st.lists(st.integers(0, len(gens) - 1), min_size=1,
                                max_size=4)):
        F = sp.mat_mul(F, gens[j])
    return F


@given(st.integers(1, 2), moduli, st.data())
def test_apply_shares_images_equal_to_fresh_ones(g, m, data):
    sp = SympSpace(g, m)
    F = drawn_sp_matrix(sp, data)
    for sub in [drawn_subgroup(sp, data) for _ in range(3)]:
        img = sub.apply(F)
        # built apart from the space's tables, so that it checks them
        fresh = SympSubgroup(sp, [vec_mat(v, F) for v in sub.canonical_gens()])
        assert img.key() == fresh.key()
        assert sub.apply(F) is img
        # an equal subgroup built apart, or F with list rows, reach the
        # same instance
        assert sp.subgroup(sub.canonical_gens()).apply(F) is img
        assert sub.apply([list(row) for row in F]) is img


@given(st.integers(1, 2), moduli, st.data())
def test_subgroup_interns_equal_generator_rows(g, m, data):
    sp = SympSpace(g, m)
    vec = st.lists(st.integers(-5, 5), min_size=sp.dim, max_size=sp.dim)
    rows = data.draw(st.lists(vec, max_size=sp.dim + 1))
    sub = sp.subgroup(rows)
    assert sub.key() == SympSubgroup(sp, rows).key()
    # lists or tuples, a fresh list or a one-shot generator: one instance
    assert sp.subgroup([list(r) for r in rows]) is sub
    assert sp.subgroup(tuple(map(tuple, rows))) is sub
    assert sp.subgroup(r for r in rows) is sub
    # a generator expression met first is read once, not consumed twice
    other = SympSpace(g, m)
    first = other.subgroup(tuple(r) for r in rows)
    assert first.key() == sub.key()
    assert other.subgroup(rows) is first


@given(st.integers(1, 2), moduli, st.data())
def test_equal_lattices_share_one_instance(g, m, data):
    sp = SympSpace(g, m)
    vec = st.lists(st.integers(-5, 5), min_size=sp.dim, max_size=sp.dim)
    rows = data.draw(st.lists(vec, max_size=sp.dim + 1))
    sub = sp.subgroup(rows)
    gens = sub.canonical_gens()
    # other rows of the same span: the canonical generators, reversed,
    # with a combination of them and a multiple of m e_1 appended
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(gens),
                                max_size=len(gens)))
    other = gens[::-1] + [vec_mat(coeffs, gens) if gens else sp.zero(),
                          (m,) + (0,) * (sp.dim - 1)]
    same = sp.subgroup(other)
    assert same is sub and same == sub and hash(same) == hash(sub)
    assert sp.subgroup(other) is sub
    # the shared lazy results are those of an instance built apart
    fresh = SympSubgroup(sp, other)
    assert fresh == sub and fresh is not sub and hash(fresh) == hash(sub)
    assert same.canonical_gens() == fresh.canonical_gens()
    assert same.radical().key() == fresh.radical().key()
    assert same.relations() == fresh.relations()
    assert same.invariants == fresh.invariants
    x = tuple(data.draw(vec))
    for y in (x, vec_mat(coeffs, gens) if gens else sp.zero()):
        assert same.solver()(y) == fresh.solver()(y)
        assert same.contains(y) == fresh.contains(y)


def test_subgroup_interning_is_per_space():
    a, b = SympSpace(1, 3), SympSpace(1, 3)
    sa, sb = a.subgroup([(1, 2)]), b.subgroup([(1, 2)])
    assert sa is not sb and sa == sb
    assert sa.space is a and sb.space is b


def test_subgroup_refused_rows_leave_no_entry():
    sp = SympSpace(2, 3)
    sub = sp.subgroup([(1, 0, 0, 0)])
    # one table keeps the instance under its rows and its lattice
    assert sp._subgroups[sub.lattice] is sub
    before = dict(sp._subgroups)
    for _ in range(2):
        with pytest.raises(InvalidInputError):
            sp.subgroup([(1, 0, 0)])
        with pytest.raises(InvalidInputError):
            sp.subgroup(iter([(1, 0, 0, 0), (1, 2)]))
    assert sp._subgroups == before


@pytest.mark.parametrize("gens", [[5], 5, [(1, 0), 7]], ids=repr)
def test_subgroup_refuses_generators_that_are_not_rows(gens):
    sp = SympSpace(1, 2)
    before = dict(sp._subgroups)
    with pytest.raises(InvalidInputError, match="sequence of rows") as info:
        sp.subgroup(gens)
    assert isinstance(info.value.__cause__, TypeError)
    assert sp._subgroups == before


@pytest.mark.parametrize("x", [True, 2.5, "3"], ids=repr)
def test_check_ints_refuses_what_is_not_an_int(x):
    with pytest.raises(InvalidInputError, match="must be an int"):
        check_ints([1, x], "entry")


def test_check_ints_accepts_an_int_subclass():
    class Entry(int):
        pass

    xs = [Entry(3), 4]
    assert check_ints(xs, "entry") == (3, 4)
    assert type(check_ints(xs, "entry")[0]) is Entry


def test_subgroup_with_unhashable_entries_is_built_directly():
    sp = SympSpace(1, 0)

    class Entry(int):
        __hash__ = None

    sub = sp.subgroup([(Entry(2), Entry(4))])
    assert sub.key() == sp.subgroup([(2, 4)]).key()
    assert sp.subgroup([(Entry(2), Entry(4))]) is not sub
    assert all(type(a) is int for row in sub.lattice for a in row)


def test_apply_images_are_still_shared_through_the_space():
    sp = SympSpace(2, 3)
    F = sp_group(sp)[2]
    sub = sp.subgroup([(1, 0, 0, 0), (0, 0, 1, 2)])
    img = sub.apply(F)
    assert sub.apply(F) is img
    # an equal subgroup from other rows is the same instance, and so
    # reaches the same image
    same = sp.subgroup([(1, 0, 0, 0), (1, 0, 1, 2)])
    assert same is sub
    assert same.apply(F) is img
    # and the image is the instance its own rows intern to
    assert sp.subgroup([vec_mat(v, F) for v in sub.canonical_gens()]) is img


@given(st.integers(1, 2), moduli, st.data())
def test_cached_radical_and_solver_equal_fresh_ones(g, m, data):
    sp = SympSpace(g, m)
    sub = drawn_subgroup(sp, data)
    F = drawn_sp_matrix(sp, data)
    x = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=sp.dim,
                                 max_size=sp.dim)))
    for s in (sub, sub.apply(F)):
        gens = s.canonical_gens()
        rad = s.radical()
        assert s.radical() is rad
        assert rad.key() == SympSubgroup(
            sp, [vec_mat(k, gens) for k in sp.row_kernel(s.gram())]).key()
        solve = s.solver()
        assert s.solver() is solve
        fresh = sp.solver(gens, sp.dim)
        member = vec_mat(x[:len(gens)], gens) if gens else sp.zero()
        for y in (x, member):
            assert solve(y) == fresh(y)
        assert solve(member) is not None


@given(st.integers(1, 2), moduli, st.data())
def test_kept_answers_equal_fresh_ones(g, m, data):
    sp = SympSpace(g, m)
    subs = [drawn_subgroup(sp, data) for _ in range(3)]
    x = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=sp.dim,
                                 max_size=sp.dim)))
    for a in subs:
        gens = a.canonical_gens()
        # built apart from the space's tables, so that its answers are new
        fresh = SympSubgroup(sp, gens)
        member = vec_mat(x[:len(gens)], gens) if gens else sp.zero()
        for y in (x, member, x):
            assert a.coords(y) == fresh.solver()(y)
        assert a.relations() == fresh.relations()
        assert a.splits_off_radical() == fresh.splits_off_radical()
        assert a.is_isotropic() == (not any(map(any, a.gram())))
        for b in subs:
            want = all(sp.pairing(u, v) == 0 for u in gens
                       for v in b.canonical_gens())
            assert a.orthogonal(b) == b.orthogonal(a) == want
        if a.is_cyclic():
            assert sp.subgroup([a.generator()]) is a
    span = sp.span(subs)
    assert span is sp.subgroup([v for s in subs for v in s.canonical_gens()])
    assert sp.span(iter(subs)) is span


# ---------------------------------------------------------------------------
# reporting and enumeration front ends


from levelnerve.covers import PermOps
from levelnerve.errors import LevelNerveError
from levelnerve.symplectic import (
    OrbitResult,
    cayley_fill,
    orbit_enumerate,
    schreier_edges,
    smith_normal_form,
    sp_group,
    stabilizer_words,
    tree_walk,
    vec_mat,
)
from oracles import schreier_edges_by_words, values_by_words
from levelnerve.catalog import multicurve_catalog
from levelnerve.decomp import (canonical_form, induced_from_multicurve,
                               sp_action)


def mat_inverse_mod(F, m):
    """Inverse by power: F has finite order mod m."""
    n = len(F)
    I = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    P = tuple(tuple(r) for r in F)
    prev = I
    for _ in range(10 ** 6):
        if P == I:
            return prev
        prev = P
        P = tuple(tuple(sum(P[i][k] * F[k][j] for k in range(n)) % m
                        for j in range(n)) for i in range(n))
    raise AssertionError("no finite order found")


def test_smith_normal_form_examples():
    assert smith_normal_form([[3, 0], [0, 5]]) == (1, 15)
    assert smith_normal_form([[2, 4], [6, 8]]) == (2, 4)


def test_smith_normal_form_identity_empty_and_idempotent():
    assert smith_normal_form(mat_identity(3)) == (1, 1, 1)
    assert smith_normal_form([]) == ()
    # divisibility chain, and stable under a rerun and on its own diagonal
    M = [[6, 10, 15], [4, 8, 2], [0, 9, 27]]
    divs = smith_normal_form(M)
    for a, b in zip(divs, divs[1:]):
        assert b % max(a, 1) == 0 or b == 0
    D = [[divs[i] if i == j else 0 for j in range(3)] for i in range(3)]
    assert smith_normal_form(D) == divs
    assert smith_normal_form(M) == divs


def test_smith_normal_form_rejects_bad_entries():
    with pytest.raises(InvalidInputError):
        smith_normal_form([[1.5, 0], [0, 1]])
    with pytest.raises(InvalidInputError):
        smith_normal_form([[1, 0], [0]])


def test_smith_normal_form_takes_sparse_rows():
    M = [[6, 10, 15], [4, 8, 2], [0, 9, 27]]
    rows = [{j: a for j, a in enumerate(r) if a} for r in M]
    assert smith_normal_form(rows, 3) == smith_normal_form(M)
    # zero entries may be given, and a missing row entry is zero
    assert smith_normal_form([{0: 0, 2: 5}, {}], 3) == (5, 0)
    assert smith_normal_form([], 4) == ()
    for bad in ([{0: 1.5}], [{3: 1}], [{-1: 1}], [{"0": 1}]):
        with pytest.raises(InvalidInputError):
            smith_normal_form(bad, 3)
    with pytest.raises(InvalidInputError):
        smith_normal_form(rows, 3.0)


def test_subgroup_report_over_Z():
    sp = SympSpace(2, 0)
    sub = sp.subgroup([sp.basis_a(1)])
    assert sub.rank == 1 and sub.is_primitive() and sub.is_isotropic()
    assert sub.canonical_gens() == [(1, 0, 0, 0)]
    sub2 = sp.subgroup([(2, 0, 0, 0)])
    assert sub2.rank == 1 and not sub2.is_primitive()
    assert tuple(sub2.lattice_divisors) == (2,)


def test_subgroup_report_mod_four():
    sp = SympSpace(2, 4)
    assert not sp.subgroup([(2, 0, 0, 0)]).is_primitive()
    # constructive counterpart: a vector with a unit coordinate does extend
    assert sp.subgroup([(1, 2, 0, 2)]).is_primitive()
    # 2*a_1 has all entries even, so any matrix with it as a row has even
    # determinant over Z/4; sample the claim directly
    import random as _r
    rng = _r.Random(5)
    for _ in range(200):
        rows = [[2, 0, 0, 0]] + [[rng.randrange(4) for _ in range(4)]
                                 for _ in range(3)]
        assert det(rows) % 2 == 0


def test_subgroup_report_generating_set_independent():
    sp = SympSpace(2, 6)
    rng = random.Random(17)
    base = [(1, 2, 3, 0), (0, 2, 0, 4)]

    def report(gens):
        sub = sp.subgroup(gens)
        return (sub.canonical_gens(), sub.rank, tuple(sub.lattice_divisors),
                sub.is_primitive(), sub.is_isotropic(), sub.invariants)

    ref = report(base)
    for _ in range(25):
        # random invertible change of generators plus noise multiples
        a, b = rng.choice([1, 5, 7, 11]), rng.randrange(6)
        g1 = sp.reduce(tuple(a * x + b * y for x, y in zip(*base)))
        c = rng.choice([1, 5, 7, 11])
        g2 = sp.reduce(tuple(c * y for y in base[1]))
        alt = report([g1, g2, sp.zero()])
        if sp.subgroup([g1, g2]) == sp.subgroup(base):
            assert alt == ref


def test_subgroup_report_trivial():
    sp = SympSpace(2, 2)
    sub = sp.subgroup([])
    assert sub.rank == 0 and sub.is_primitive() and sub.is_isotropic()
    assert sub.canonical_gens() == []


def test_sp_group_membership_and_congruence():
    sp = SympSpace(2, 0)
    assert all(sp.is_symplectic(F) for F in sp_group(sp))
    assert sp.is_symplectic(sp.identity_matrix())
    assert sp.is_symplectic(sp.transvection(sp.basis_a(1)))
    assert not sp.is_symplectic([[1, 0, 0, 0], [0, 1, 0, 0],
                                 [0, 0, 1, 0], [1, 0, 0, 1]])


def test_sp_group_closure_720_and_brute_force():
    sp = SympSpace(2, 2)
    closure = sp.sp_closure(sp_group(sp))
    assert len(closure) == 720
    # independent route: count all symplectic 4x4 matrices over Z/2
    count = 0
    for bits in range(1 << 16):
        F = tuple(tuple((bits >> (4 * i + j)) & 1 for j in range(4))
                  for i in range(4))
        if sp.is_symplectic(F):
            count += 1
    assert count == 720
    # membership closed under product and inverse on samples
    sample = list(closure)[:40]
    for F in sample:
        assert sp.is_symplectic(F)
        assert sp.is_symplectic(sp.mat_mul(F, sample[0]))
        assert sp.is_symplectic(mat_inverse_mod(F, 2))


def assert_discovery_order(res, seed):
    """The orbit in breadth-first discovery order: the seed first, the
    words strictly increasing in shortlex order, and each element reached
    along the last letter of its word from the element of its prefix."""
    assert res.elements[0] == seed and res.words[0] == ()
    keys = [(len(w), w) for w in res.words]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    for i, w in enumerate(res.words[1:], 1):
        assert res.moves[res.words.index(w[:-1])][w[-1]] == i


def test_orbit_enumerate_vectors_all_nonzero():
    for g, m, size in ((2, 2, 15), (1, 3, 8)):
        sp = SympSpace(g, m)
        gens = sp_group(sp)
        res = orbit_enumerate(sp.basis_a(1), gens,
                              lambda F, v: sp.mat_apply(v, F))
        assert len(res.elements) == size
        assert set(res.elements) == {v for v in product(range(m), repeat=2 * g)
                                     if any(v)}
        assert_discovery_order(res, sp.basis_a(1))
        assert res.keys == res.elements
        # action-closed
        members = set(res.elements)
        for v in res.elements:
            for F in gens:
                assert sp.mat_apply(v, F) in members
        # transversal words reproduce their elements
        for v, w in zip(res.elements, res.words):
            x = sp.basis_a(1)
            for i in w:
                x = sp.mat_apply(x, gens[i])
            assert x == v


def test_orbit_enumerate_identity_generator():
    sp = SympSpace(2, 2)
    res = orbit_enumerate((1, 0, 0, 0), [sp.identity_matrix()],
                          lambda F, v: sp.mat_apply(v, F))
    assert res.elements == ((1, 0, 0, 0),)
    assert res.words == ((),)
    assert res.moves == ((0,),)


def assert_moves_follow_edges(res, gens, action, key=lambda x: x):
    """moves[i][j] is the index of gens[j] applied to elements[i]."""
    assert len(res.moves) == len(res.elements)
    for i, x in enumerate(res.elements):
        assert len(res.moves[i]) == len(gens)
        for j, g in enumerate(gens):
            assert res.keys[res.moves[i][j]] == key(action(g, x))


def word_matrices(sp, gens, words):
    """The product of gens along each word, ~i standing for the inverse
    of gens[i]."""
    inverses = [mat_inverse_mod(G, sp.m) for G in gens]
    for word in words:
        F = sp.identity_matrix()
        for j in word:
            F = sp.mat_mul(F, gens[j] if j >= 0 else inverses[~j])
        yield F


def assert_stabilizer_words(res, sp, gens, fixes):
    """One nonempty word per edge off the breadth-first tree, pairwise
    distinct, each fixing the seed as a matrix product."""
    words = list(stabilizer_words(res))
    n = len(res.elements)
    assert len(words) == len(gens) * n - (n - 1)
    assert all(words) and len(set(words)) == len(words)
    assert all(map(fixes, word_matrices(sp, gens, words)))


@given(st.sampled_from([1, 2]), st.sampled_from([2, 3, 4, 6]), st.data())
def test_orbit_moves_are_the_schreier_graph(g, m, data):
    sp = SympSpace(g, m)
    gens = sp_group(sp)
    seed = tuple(data.draw(st.lists(st.integers(0, m - 1), min_size=2 * g,
                                    max_size=2 * g)))

    def act(F, v):
        return sp.mat_apply(v, F)

    res = orbit_enumerate(seed, gens, act)
    assert_moves_follow_edges(res, gens, act)
    # replaying a transversal word through moves lands on its element
    start = res.keys.index(seed)
    for i, w in enumerate(res.words):
        s = start
        for j in w:
            s = res.moves[s][j]
        assert s == i


def assert_tree_walk_replays_words(res, root, step):
    """tree_walk gives each element the value its word replays to, and
    its other edges are those whose words do not extend along them."""
    values, other = tree_walk(res.moves, root, step)
    assert values == values_by_words(res, root, step)
    assert other == schreier_edges_by_words(res) == list(schreier_edges(res))


@settings(max_examples=30)
@given(st.sampled_from([1, 2]), st.sampled_from([2, 3, 4]), st.data())
def test_tree_walk_matches_word_replays_on_sp_orbits(g, m, data):
    # each element's tree path, and its transport as a matrix product
    sp = SympSpace(g, m)
    gens = sp_group(sp)
    seed = tuple(data.draw(st.lists(st.integers(0, m - 1), min_size=2 * g,
                                    max_size=2 * g)))
    res = orbit_enumerate(seed, gens, lambda F, v: sp.mat_apply(v, F))
    assert_tree_walk_replays_words(res, (),
                                   lambda path, x, j: path + ((x, j),))
    assert_tree_walk_replays_words(res, sp.identity_matrix(),
                                   lambda F, x, j: sp.mat_mul(F, gens[j]))


@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.permutations(range(n)).map(tuple), min_size=1, max_size=3)))
def test_tree_walk_matches_word_replays_on_permutation_groups(perms):
    # the Cayley graph of the group the permutations generate, as
    # DeckGroup enumerates it: cayley_fill gives back every element
    ops = PermOps(len(perms[0]))
    res = orbit_enumerate(ops.identity, perms, lambda p, a: ops.mul(a, p))
    assert_tree_walk_replays_words(res, ops.identity,
                                   lambda a, x, j: ops.mul(a, perms[j]))
    assert cayley_fill(ops.identity, perms, tuple(zip(*res.moves)),
                       ops.mul) == res.elements


@pytest.mark.parametrize("moves", [
    ((2, 1), (0, 0), (0, 0)),  # 2 is reached before 1
    ((0,), (1,)),              # 1 is not reached from 0: two trees
    ((1,), (0,), (2,)),        # 2, a loop, roots a tree of its own
])
def test_tree_walk_is_a_breadth_first_forest(moves):
    def step(path, x, j):
        return path + ((x, j),)

    assert tree_walk(moves, (), step) == forest_by_queue(moves, (), step)


@pytest.mark.parametrize("moves", [((1,), (5,)), ((0, -1),)])
def test_tree_walk_refuses_an_edge_that_leaves_the_graph(moves):
    with pytest.raises(LevelNerveError, match="leaves the graph"):
        tree_walk(moves, 0, lambda v, x, j: v + 1)


@given(st.integers(1, 9).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), max_size=4).map(tuple),
    min_size=n, max_size=n)), st.booleans())
def test_tree_walk_matches_a_forest_search_on_any_multigraph(moves, both):
    # any numbering, loops, parallel edges and several components; with
    # both, every edge also runs back, as in an undirected graph
    if both:
        back = [list(row) for row in moves]
        for x, row in enumerate(moves):
            for y in row:
                back[y].append(x)
        moves = tuple(map(tuple, back))

    def step(path, x, j):
        return path + ((x, j),)

    values, other = tree_walk(moves, (), step)
    assert (values, other) == forest_by_queue(moves, (), step)
    # every edge is on the forest or off it, and the tree paths follow it
    assert len(other) + sum(map(bool, values)) == sum(map(len, moves))
    assert all(moves[x][j] == y for x, j, y in other)
    for y, path in enumerate(values):
        assert not path or moves[path[-1][0]][path[-1][1]] == y


# fewer examples than the profile: every word is multiplied out as a
# matrix, 4 801 words for an orbit of 1 200 vectors at (g, m) = (2, 6)
@settings(max_examples=30)
@given(st.sampled_from([1, 2]), st.sampled_from([2, 3, 4, 6]), st.data())
def test_stabilizer_words_fix_the_seed(g, m, data):
    sp = SympSpace(g, m)
    gens = sp_group(sp)
    seed = tuple(data.draw(st.lists(st.integers(0, m - 1), min_size=2 * g,
                                    max_size=2 * g)))
    res = orbit_enumerate(seed, gens, lambda F, v: sp.mat_apply(v, F))
    assert_stabilizer_words(res, sp, gens,
                            lambda F: sp.mat_apply(seed, F) == seed)


def test_orbit_moves_of_a_keyed_decomposition_orbit():
    sp = SympSpace(1, 3)
    gens = sp_group(sp)
    mc = next(mc for mc in multicurve_catalog(1, 2) if len(mc.words) == 2)
    seed = induced_from_multicurve(1, 2, 3, mc)
    res = orbit_enumerate(seed, gens, sp_action, key=canonical_form)
    assert len(res.elements) > 1
    assert_moves_follow_edges(res, gens, sp_action, key=canonical_form)
    assert_stabilizer_words(
        res, sp, gens,
        lambda F: canonical_form(sp_action(F, seed)) == canonical_form(seed))


def test_orbit_moves_with_repeated_generators():
    sp = SympSpace(1, 3)
    T, U = sp_group(sp)
    gens = [T, U, T, sp.identity_matrix(), U]

    def act(F, v):
        return sp.mat_apply(v, F)

    res = orbit_enumerate(sp.basis_a(1), gens, act)
    assert len(res.elements) == 8
    assert_moves_follow_edges(res, gens, act)
    assert_stabilizer_words(
        res, sp, gens, lambda F: act(F, sp.basis_a(1)) == sp.basis_a(1))
    for i, row in enumerate(res.moves):
        assert row[0] == row[2] and row[1] == row[4] and row[3] == i


def test_orbit_enumerate_hyperbolic_planes():
    sp = SympSpace(2, 2)
    gens = sp_group(sp)
    seed = sp.subgroup([sp.basis_a(1), sp.basis_b(1)])
    res = orbit_enumerate(seed, gens, lambda F, s: s.apply(F),
                          key=lambda s: s.key())
    assert len(res.elements) == 20
    assert res.keys == tuple(s.key() for s in res.elements)
    assert_discovery_order(res, seed)


class _Unordered:
    """A key that hashes and compares equal, with no order."""

    def __init__(self, v):
        self.v = v

    def __eq__(self, other):
        return self.v == other.v

    def __hash__(self):
        return hash(self.v)


def test_orbit_enumerate_unorderable_keys():
    sp = SympSpace(1, 3)
    gens = sp_group(sp)

    def act(F, v):
        return sp.mat_apply(v, F)

    res = orbit_enumerate(sp.basis_a(1), gens, act, key=_Unordered)
    assert res.keys == tuple(map(_Unordered, res.elements))
    assert_discovery_order(res, sp.basis_a(1))
    assert_moves_follow_edges(res, gens, act, key=_Unordered)
    plain = orbit_enumerate(sp.basis_a(1), gens, act)
    assert (res.elements, res.words, res.moves) == (
        plain.elements, plain.words, plain.moves)


def test_orbit_enumerate_stabilizer_order():
    sp = SympSpace(2, 2)
    gens = sp_group(sp)
    res = orbit_enumerate(sp.basis_a(1), gens,
                          lambda F, v: sp.mat_apply(v, F))
    mats = list(word_matrices(sp, gens, stabilizer_words(res)))
    for F in mats:
        assert sp.mat_apply(sp.basis_a(1), F) == sp.basis_a(1)
    stab = sp.sp_closure(mats)
    assert len(res.elements) * len(stab) == 720


def test_stabilizer_words_pinned():
    # the words of the orbit of a_1 in (Z/3)^2, in first-visit order of
    # their edges' sources; -1 = ~0 and -2 = ~1 are the inverses of the
    # two transvections
    sp = SympSpace(1, 3)
    res = orbit_enumerate(sp.basis_a(1), sp_group(sp),
                          lambda F, v: sp.mat_apply(v, F))
    assert len(res.elements) == 8
    assert tuple(stabilizer_words(res)) == (
        (0,), (1, 0, 1, -1, -2), (1, 1, 1), (1, 0, 0, 0, -2),
        (1, 1, 0, 1, -1, -1, -2), (1, 0, 0, 1, 0, -2, -1, -1, -2),
        (1, 0, 0, 1, 1, -1, -2, -2), (1, 1, 0, 0, 0, -2, -2),
        (1, 1, 0, 0, 1, -1, -1, -2, -2))


def test_orbit_result_fields():
    assert OrbitResult._fields == ("elements", "keys", "words", "moves")


def test_orbit_enumerate_cap():
    sp = SympSpace(2, 2)
    gens = sp_group(sp)
    with pytest.raises(ResourceLimitError):
        orbit_enumerate(sp.basis_a(1), gens,
                        lambda F, v: sp.mat_apply(v, F), cap=5)


def test_orbit_enumerate_deterministic():
    sp = SympSpace(2, 2)
    gens = sp_group(sp)
    r1 = orbit_enumerate(sp.basis_a(1), gens,
                         lambda F, v: sp.mat_apply(v, F))
    r2 = orbit_enumerate(sp.basis_a(1), gens,
                         lambda F, v: sp.mat_apply(v, F))
    assert r1 == r2


# --------------------------------------------------------------------------
# the Z/m matrix kernel against dense and sympy references

entries = st.one_of(st.just(0), st.integers(-7, 7))


def dense_mat_mul(A, B):
    return [[sum(A[i][t] * B[t][j] for t in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


@st.composite
def matrix_pairs(draw):
    """(A, B) with A r x k and B k x c, zero rows likely."""
    r, k, c = (draw(st.integers(1, 5)) for _ in range(3))
    row = lambda w: st.one_of(st.just([0] * w),
                              st.lists(entries, min_size=w, max_size=w))
    A = draw(st.lists(row(k), min_size=r, max_size=r))
    B = draw(st.lists(row(c), min_size=k, max_size=k))
    return A, B


@given(matrix_pairs())
@example(([[0, 0]], [[1, -2, 3], [-4, 5, 0]]))
@example(([[0, 3], [0, 0]], [[0, 0], [-1, 2]]))
def test_vec_mat_and_mat_mul_match_dense(pair):
    A, B = pair
    want = dense_mat_mul(A, B)
    assert mat_mul(A, B) == want
    for x, row in zip(A, want):
        assert vec_mat(x, B) == tuple(row)


@given(st.integers(1, 3), moduli, st.data())
def test_space_matrix_products_match_dense(g, m, data):
    sp = SympSpace(g, m)
    n = sp.dim
    mats = st.lists(st.lists(entries, min_size=n, max_size=n),
                    min_size=n, max_size=n)
    F, G = data.draw(mats), data.draw(mats)
    x = data.draw(st.one_of(st.just([0] * n),
                            st.lists(entries, min_size=n, max_size=n)))
    red = (lambda a: a % m) if m else (lambda a: a)
    assert sp.mat_mul(F, G) == tuple(tuple(red(a) for a in row)
                                     for row in dense_mat_mul(F, G))
    assert sp.mat_apply(x, F) == tuple(red(a)
                                       for a in dense_mat_mul([x], F)[0])
    # the pairing and the transvections against the dense form x J y^T,
    # over Z and composite moduli too
    y = data.draw(st.lists(entries, min_size=n, max_size=n))
    Jy = [a for (a,) in dense_mat_mul(sp.J, [[b] for b in y])]
    assert sp.pairing(x, y) == red(sum(a * b for a, b in zip(x, Jy)))
    for T, s in ((sp.transvection(y), 1), (sp.inverse_transvection(y), -1)):
        assert T == tuple(tuple(red((i == j) + s * Jy[i] * y[j])
                                for j in range(n)) for i in range(n))


def sympy_is_symplectic(sp, F):
    J = sympy.Matrix(sp.J)
    P = sympy.Matrix(F) * J * sympy.Matrix(F).T - J
    return all((a % sp.m if sp.m else a) == 0 for a in P)


@st.composite
def transvection_products(draw):
    """(space, F) with F a product of transvections, so symplectic."""
    g, m = draw(st.integers(1, 3)), draw(moduli)
    sp = SympSpace(g, m)
    F = sp.identity_matrix()
    for _ in range(draw(st.integers(0, 6))):
        v = draw(st.lists(st.integers(-3, 3), min_size=sp.dim,
                          max_size=sp.dim))
        T = (sp.transvection(v) if draw(st.booleans())
             else sp.inverse_transvection(v))
        F = sp.mat_mul(F, T)
    return sp, F


@given(st.integers(1, 3), moduli, st.data())
def test_is_symplectic_matches_sympy_on_random(g, m, data):
    sp = SympSpace(g, m)
    n = sp.dim
    F = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n))
    assert sp.is_symplectic(F) == sympy_is_symplectic(sp, F)


@given(transvection_products(), st.data())
def test_is_symplectic_matches_sympy_on_transvection_products(case, data):
    sp, F = case
    assert sp.is_symplectic(F) and sympy_is_symplectic(sp, F)
    # one changed entry usually breaks it; both sides must agree either way
    i, j = (data.draw(st.integers(0, sp.dim - 1)) for _ in range(2))
    G = [list(r) for r in F]
    G[i][j] += data.draw(st.integers(1, 5))
    assert sp.is_symplectic(G) == sympy_is_symplectic(sp, G)


@given(transvection_products())
def test_symplectic_inverse_is_inverse(case):
    sp, F = case
    inv = sp.symplectic_inverse(F)
    assert sp.mat_mul(F, inv) == sp.identity_matrix()
    assert sp.mat_mul(inv, F) == sp.identity_matrix()


@given(transvection_products(), st.data())
def test_checked_matrix_record(case, data):
    """The record of a transvection product, perhaps with one entry
    changed: it has an inverse exactly when is_symplectic holds, and then
    the inverse inverts, maps_onto agrees with comparing A.apply(F) to B,
    and the memoized image of a frame is the sign normal of the moved
    frame."""
    sp, F = case
    n = sp.dim
    vec = st.lists(st.integers(-5, 5), min_size=n, max_size=n)
    F = [list(r) for r in F]
    if data.draw(st.booleans()):
        i, j = (data.draw(st.integers(0, n - 1)) for _ in range(2))
        F[i][j] += data.draw(st.integers(1, 5))
    F = tuple(map(tuple, F))
    rec = checked_matrix(sp.g, sp.m, F)
    assert rec.rows == sp.reduce_matrix(F)
    assert (rec.inverse is not None) == sp.is_symplectic(F)
    if rec.inverse is None:
        return
    assert sp.mat_mul(F, rec.inverse) == sp.identity_matrix()
    A = sp.subgroup(data.draw(st.lists(vec, max_size=3)))
    how = data.draw(st.sampled_from(["image", "perturbed", "unrelated"]))
    if how == "image":
        B = A.apply(F)
    elif how == "perturbed":
        B = A.apply(F).apply(sp.transvection(data.draw(vec)))
    else:
        B = sp.subgroup(data.draw(st.lists(vec, max_size=3)))
    assert rec.maps_onto(A, B) == (A.apply(F) == B)
    f = tuple(data.draw(vec))
    assert rec.frame_image(f) == sp.sign_normal(sp.mat_apply(f, F))


def test_checked_matrix_refuses_a_wrong_size():
    with pytest.raises(InvalidInputError, match="size"):
        checked_matrix(1, 2, ((1, 0),))


def test_checked_matrix_shares_only_reduced_int_rows():
    checked_matrix.cache_clear()
    flags = ((True, False), (False, True))
    assert all(type(a) is int for row in checked_matrix(1, 2, flags).rows
               for a in row)
    checked_matrix.cache_clear()
    F = ((1, 0), (0, 1))
    assert checked_matrix(1, 2, F).rows is F
    assert checked_matrix(1, 3, ((4, 0), (3, -2))).rows == ((1, 0), (0, 1))


@given(st.integers(1, 2), moduli, st.data())
def test_contains_matches_lattice_reduce(g, m, data):
    sp = SympSpace(g, m)
    vec = st.lists(st.integers(-5, 5), min_size=sp.dim, max_size=sp.dim)
    sub = sp.subgroup(data.draw(st.lists(vec, max_size=3)))
    gens = sub.canonical_gens()
    picks = data.draw(st.lists(st.integers(-3, 3), min_size=len(gens),
                               max_size=len(gens)))
    inside = [sum(c * v[k] for c, v in zip(picks, gens))
              for k in range(sp.dim)]
    for x in (inside, data.draw(vec)):
        want = not any(lattice_reduce(sub.lattice, sp.reduce(x)))
        assert sub.contains(x) == want
    assert sub.contains(inside)


def test_canonical_gens_copy_does_not_leak_into_cache():
    sp = SympSpace(2, 4)
    sub = sp.subgroup([(2, 0, 0, 0), (1, 1, 0, 3)])
    twin = sp.subgroup([(2, 0, 0, 0), (1, 1, 0, 3)])
    gens = sub.canonical_gens()
    key, h = sub.key(), hash(sub)
    assert sub.contains((1, 1, 0, 3))
    gens.clear()
    gens.append((1, 0, 0, 0))
    assert sub.canonical_gens() == twin.canonical_gens() != gens
    assert sub.key() == key and hash(sub) == h and sub == twin
    assert sub.contains((1, 1, 0, 3)) and sub.contains((2, 0, 0, 0))
    assert not sub.contains((1, 0, 0, 0))


# --------------------------------------------------------------------------
# the coordinate routine


def combine(c, rows, width):
    return [sum(a * r[k] for a, r in zip(c, rows)) for k in range(width)]


@st.composite
def solver_cases(draw):
    """(m, width, rows, x): up to three rows of width 1 to 5 with entries
    outside [0, m), then maybe a combination of them, and x a combination
    of all the rows, maybe shifted by a random vector."""
    m, width = draw(moduli), draw(st.integers(1, 5))
    vec = st.lists(st.integers(-7, 7), min_size=width, max_size=width)
    rows = draw(st.lists(vec, max_size=3))
    coef = st.lists(st.integers(-3, 3), min_size=len(rows),
                    max_size=len(rows))
    if rows and draw(st.booleans()):
        rows.append(combine(draw(coef), rows, width))
        coef = st.lists(st.integers(-3, 3), min_size=len(rows),
                        max_size=len(rows))
    x = combine(draw(coef), rows, width)
    if draw(st.booleans()):
        x = [a + b for a, b in zip(x, draw(vec))]
    return m, width, rows, x


def in_span(m, width, rows, x):
    """Membership of x in the span of the rows mod m: SympSubgroup.contains
    at even width (and at odd width over Z, padded by a zero column), else
    every coefficient vector in [0, m)^k."""
    if width % 2 and m:
        return any(all((a - b) % m == 0
                       for a, b in zip(combine(c, rows, width), x))
                   for c in product(range(m), repeat=len(rows)))
    if width % 2:
        rows, x = [r + [0] for r in rows], x + [0]
        width += 1
    return SympSpace(width // 2, m).subgroup(rows).contains(x)


@given(solver_cases())
@example((4, 3, [], [0, 4, 0]))
@example((0, 3, [], [0, 0, 1]))
@example((2, 4, [[1, 1, 0, 0], [1, 1, 0, 0]], [3, 1, 0, 0]))
@example((6, 1, [[2], [3]], [1]))
@example((3, 2, [[0, 0]], [0, 0]))
def test_solver_finds_coordinates_exactly_on_the_span(case):
    m, width, rows, x = case
    c = SympSpace(width // 2, m).solver(rows, width)(x)
    assert (c is not None) == in_span(m, width, rows, x)
    if c is not None:
        assert len(c) == len(rows)
        diff = [a - b for a, b in zip(combine(c, rows, width), x)]
        assert not any(a % m if m else a for a in diff)


def test_solver_keeps_integer_coordinates_at_composite_moduli():
    # away from prime m the coordinates are those of the greedy reduction
    # over Z, not reduced mod m, and dependent rows fix one choice of them
    pinned = [
        (4, [(2, 0, 1), (1, 0, 3), (3, 0, 4)], (1, 0, 3), (0, 9, 12)),
        (4, [(2, 0, 1), (1, 0, 3), (3, 0, 4)], (3, 0, 0), (0, 0, 9)),
        (4, [(2, 0, 0, 0), (1, 1, 0, 3)], (3, 1, 0, 3), (-1, 1)),
        (4, [(2, 0, 0, 0), (1, 1, 0, 3)], (1, 0, 0, 0), None),
        (6, [(3, 2), (2, 4), (1, 1)], (5, 1), (6, 1, 21)),
        (6, [(3, 0), (0, 2), (3, 2)], (3, 4), (0, 0, 11)),
        (0, [(2, 4, 0), (1, 2, 1), (3, 6, 1)], (5, 10, 1), (0, -1, 2)),
        (0, [(2, 4, 0), (1, 2, 1), (3, 6, 1)], (4, 8, 1), None),
        (4, [], (0, 4), ()),
    ]
    for m, rows, x, want in pinned:
        assert SympSpace(1, m).solver(rows, len(x))(x) == want


# --------------------------------------------------------------------------
# the F_p canonical form of prime moduli against the integer Hermite form


def integer_reference(rows, p, n):
    """lattice, lattice divisors, invariants, rank, order and canonical
    generators of the subgroup through hnf(rows + p*I) and snf_diagonal."""
    lattice = hnf([list(r) for r in rows]
                  + [[p if t == j else 0 for t in range(n)] for j in range(n)])
    divs = snf_diagonal(lattice)
    inv = tuple(reversed([p // d for d in divs if p // d > 1]))
    gens = [v for v in (tuple(a % p for a in r) for r in lattice) if any(v)]
    return (tuple(map(tuple, lattice)), divs, inv, len(inv),
            math.prod(inv), gens)


@st.composite
def prime_generators(draw):
    """(p, g, rows): up to 2g + 3 rows of length 2g <= 34, zero rows and
    entries outside [0, p) likely."""
    p, g = draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(0, 17))
    n = 2 * g
    entry = st.one_of(st.just(0), st.integers(-3 * p, 3 * p))
    row = st.one_of(st.just([0] * n),
                    st.lists(entry, min_size=n, max_size=n))
    return p, g, draw(st.lists(row, max_size=n + 3))


@given(prime_generators())
@example((2, 2, []))
@example((3, 2, [[0, 0, 0, 0], [0, 0, 0, 0]]))
@example((5, 2, [[-1, 7, 5, -10], [12, -3, 0, 4]]))
@example((7, 1, [[1, 0], [8, 1], [0, -6], [3, 3]]))
@example((2, 17, [[1] * 34, [0, 1] * 17, [3] * 34]))
def test_prime_path_matches_integer_hermite_form(case):
    p, g, rows = case
    sub = SympSpace(g, p).subgroup(rows)
    assert sub.space.prime
    got = (sub.lattice, sub.lattice_divisors, sub.invariants, sub.rank,
           sub.order, sub.canonical_gens())
    assert got == integer_reference(rows, p, 2 * g)


@st.composite
def f2_matrices(draw):
    """(width, rows): rows of width 0 to 66, zero rows, negative entries
    and entries above 1 likely, and up to width + 3 rows, so at small
    widths more rows than columns."""
    width = draw(st.integers(0, 66))
    entry = st.one_of(st.just(0), st.integers(-3, 3))
    row = st.one_of(st.just([0] * width),
                    st.lists(entry, min_size=width, max_size=width))
    return width, draw(st.lists(row, max_size=width + 3))


@given(f2_matrices(), st.data())
@example((0, []), None)
@example((4, []), None)
@example((2, [[0, 0], [0, 0], [0, 0]]), None)
@example((3, [[1, -1, 2], [3, 0, -5], [1, 1, 1], [0, 2, 1], [-1, 0, 0]]),
         None)
@example((66, [[1] * 66, [-1, 3] * 33, [0] * 66, [2] * 66]), None)
def test_f2_echelon_matches_the_list_loop(case, data):
    """At p = 2 the packed echelon gives the list loop's rows and pivot
    order, and so do the transform, the kernels, the solver and the
    cokernel invariants read off it."""
    width, rows = case
    want = rref_by_lists(rows, 2, width)
    got = _rref_mod_p(rows, 2, width)
    assert got == want and list(got) == list(want)
    pairs = rref_transform_by_lists(rows, 2)
    assert rref_transform(rows, 2) == pairs
    sp = SympSpace(width // 2, 2)
    assert sp.row_kernel(rows) == [t for h, t in pairs if not any(h)]
    assert sp.cokernel_invariants(rows, width) == (2,) * (width - len(want))
    coef = [0] * len(rows) if data is None else data.draw(
        st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    shift = [0] * width if data is None else data.draw(
        st.lists(st.integers(-1, 1), min_size=width, max_size=width))
    solve = sp.solver(rows, width)
    for x in (combine(coef, rows, width),
              [a + b for a, b in zip(combine(coef, rows, width), shift)]):
        rest = [a % 2 for a in x]
        for j, b in want.items():
            if rest[j]:
                rest = [a ^ c for a, c in zip(rest, b)]
        c = solve(x)
        assert (c is None) == any(rest)
        if c is not None:
            assert all((a - b) % 2 == 0
                       for a, b in zip(combine(c, rows, width), x))


def test_f2_lattice_never_runs_the_list_loop():
    class NoMod(int):
        # the list loop reduces each entry by %, the packed one reads a & 1
        def __mod__(self, p):
            raise AssertionError("list elimination ran")

    rows = [[1, 1, 0, 1], [3, -1, 2, 0], [0, 1, 1, 1], [0, 0, 0, 0]]
    guarded = [[NoMod(a) for a in r] for r in rows]
    assert SympSpace(2, 2).lattice(guarded) == SympSpace(2, 2).lattice(rows)
    with pytest.raises(AssertionError, match="list elimination"):
        SympSpace(2, 3).lattice(guarded)


def test_reduce_converts_only_entries_that_are_not_ints():
    sp = SympSpace(2, 3)
    for vec, want in [((4, -1, 3, 7), (1, 2, 0, 1)),
                      ((True, False, 2.7, -1.5), (1, 0, 2, 2)),
                      ([5, True, 0, -4], (2, 1, 0, 2))]:
        got = sp.reduce(vec)
        assert got == want and all(type(a) is int for a in got)


def test_prime_moduli_skip_integer_hnf_and_snf(monkeypatch):
    import levelnerve.symplectic as symplectic

    def refuse(*args):
        raise AssertionError("integer Hermite or Smith form called")

    monkeypatch.setattr(symplectic, "hnf", refuse)
    monkeypatch.setattr(symplectic, "snf_diagonal", refuse)
    pinned_prime = {
        2: (((1, 0, 1, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)),
            (1, 2, 2, 2), (2,), 1, 2),
        3: (((1, 0, 2, 0), (0, 1, 2, 2), (0, 0, 3, 0), (0, 0, 0, 3)),
            (1, 1, 3, 3), (3, 3), 2, 9),
        7: (((1, 0, 6, 0), (0, 1, 2, 2), (0, 0, 7, 0), (0, 0, 0, 7)),
            (1, 1, 7, 7), (7, 7), 2, 49),
    }
    for p, want in pinned_prime.items():
        sub = SympSpace(2, p).subgroup([(1, 2, 3, 4), (p + 1, 0, -1, 0)])
        assert (sub.key(), sub.lattice_divisors, sub.invariants, sub.rank,
                sub.order) == want
    # composite moduli and Z take the integer path
    for m in (4, 6, 0):
        assert not SympSpace(2, m).prime
        with pytest.raises(AssertionError, match="integer"):
            SympSpace(2, m).subgroup([(2, 0, 0, 0)])
    monkeypatch.undo()
    pinned_integer = {
        4: ([(2, 0, 0, 0), (1, 1, 0, 3)],
            ((1, 1, 0, 3), (0, 2, 0, 2), (0, 0, 4, 0), (0, 0, 0, 4)),
            (1, 2, 4, 4), (2, 4), 2, 8),
        6: ([(1, 2, 3, 0), (0, 2, 0, 4)],
            ((1, 0, 3, 2), (0, 2, 0, 4), (0, 0, 6, 0), (0, 0, 0, 6)),
            (1, 2, 6, 6), (3, 6), 2, 18),
        0: ([(2, 0, 0, 0), (1, 1, 0, 3)],
            ((1, 1, 0, 3), (0, 2, 0, 6)), (1, 2), (0, 0), 2, None),
    }
    for m, (gens, *want) in pinned_integer.items():
        sub = SympSpace(2, m).subgroup(gens)
        assert [sub.key(), sub.lattice_divisors, sub.invariants, sub.rank,
                sub.order] == want


# --------------------------------------------------------------------------
# transform-free Smith divisors against snf and sympy


def snf_reference(M):
    D, _, _ = snf(M)
    return tuple(D[i][i] for i in range(min(len(D), len(D[0]) if D else 0)))


def sympy_smith_diagonal(M):
    r, c = len(M), len(M[0]) if M else 0
    S = sympy_smith(sympy.Matrix(r, c, [x for row in M for x in row]),
                    domain=sympy.ZZ)
    return tuple(abs(S[i, i]) for i in range(min(r, c)))


@st.composite
def smith_inputs(draw):
    """r x c integer matrices with 0 <= r, c <= 5: small or large entries,
    a zero row and a zero column likely, and after scaling by 2, 3 or 6
    no unit entry at all."""
    r, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = draw(st.sampled_from([entries, st.integers(-10**12, 10**12)]))
    M = draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                      min_size=r, max_size=r))
    if r and draw(st.booleans()):
        M[draw(st.integers(0, r - 1))] = [0] * c
    if c and draw(st.booleans()):
        j = draw(st.integers(0, c - 1))
        for row in M:
            row[j] = 0
    scale = draw(st.sampled_from([1, 2, 3, 6]))
    return [[scale * a for a in row] for row in M]


@given(smith_inputs())
@example([])
@example([[], []])
@example([[0, 0, 0]])
@example([[2, 0], [0, 3]])
@example([[4, 0], [0, 6]])
@example([[2, 3]])
@example([[6, 10, 15]])
@example([[4, 6], [6, 9], [10, 14]])
def test_snf_diagonal_matches_snf_and_sympy(M):
    assert snf_diagonal(M) == snf_reference(M) == sympy_smith_diagonal(M)
    assert snf_diagonal(M) == snf_diagonal_dense(M)


@st.composite
def sparse_unit_inputs(draw):
    """r x c matrices with 0 <= r, c <= 14 and at most 40 entries, each
    +-1, as sparse rows that sometimes also list a zero entry; a cell
    drawn twice keeps its last sign."""
    r, c = draw(st.integers(0, 14)), draw(st.integers(0, 14))
    rows = [{} for _ in range(r)]
    if r and c:
        for i, j, a in draw(st.lists(
                st.tuples(st.integers(0, r - 1), st.integers(0, c - 1),
                          st.sampled_from([1, -1, 0])), max_size=40)):
            if a or draw(st.booleans()):
                rows[i][j] = a
    return rows, c


@given(sparse_unit_inputs())
@example(([], 0))
@example(([{}, {}], 3))
@example(([{0: 1, 1: 0}, {0: -1}], 2))
def test_snf_sparse_matches_the_dense_loop_and_sympy(data):
    rows, width = data
    M = [[r.get(j, 0) for j in range(width)] for r in rows]
    copies = [dict(r) for r in rows]
    assert snf_sparse(rows, width) == snf_diagonal_dense(M) \
        == sympy_smith_diagonal(M)
    assert rows == copies


def test_snf_diagonal_pinned():
    assert snf_diagonal([[2, 0], [0, 3]]) == (1, 6)
    assert snf_diagonal([[4, 0], [0, 6]]) == (2, 12)
    # the pivot 2 leaves the remainder 1 in its row
    assert snf_diagonal([[2, 3]]) == (1,)
    assert snf_diagonal([[0, 0], [0, 0], [0, 0]]) == (0, 0)
    assert snf_diagonal([[0], [5], [-10]]) == (5,)
    M = [(2, 4), (6, 9)]
    assert snf_diagonal(M) == (1, 6)
    assert M == [(2, 4), (6, 9)]


@given(smith_inputs())
@example([])
@example([[], []])
@example([[0, 0, 0]])
@example([[4, 6], [6, 9], [10, 14]])
def test_int_row_kernel_annihilates_and_matches_snf(M):
    r, c = len(M), len(M[0]) if M else 0
    ker = int_row_kernel(M)
    for x in ker:
        assert all(sum(x[i] * M[i][j] for i in range(r)) == 0
                   for j in range(c))
    D, U, _ = snf(M)
    want = [U[i] for i in range(r) if i >= min(r, c) or D[i][i] == 0]
    assert hnf(ker) == hnf(want)
