"""Graph decompositions: validity conditions, equivalence, order, transport.

The independent oracles live at the top: a brute-force reading of the
edge-set condition over every subset (no closed-form shortcut), the
low-level module-map route for the gluing condition, the perp
description of a nonseparating complement, and the literal definition of
the vertex splitting (a free nondegenerate complement found by search
among subgroups).  Expected values frozen below
were produced by those oracles."""

import hashlib
import itertools
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from levelnerve.errors import (InvalidInputError, ResourceLimitError,
                               UnsupportedError)
from levelnerve.symplectic import (SympSpace, SympSubgroup, checked_matrix,
                                   sp_group, vec_mat)
from levelnerve.covers import (abelian_cover, homology_cover, identity_cover,
                               perm_cover)
from levelnerve.catalog import multicurve_catalog
from levelnerve import covers, decomp, symplectic
from levelnerve.decomp import (EquivariantDecomposition, FramedDecomposition,
                               GraphDecomposition, canonical_form,
                               decomposition_from_data, decomposition_to_data,
                               induced_from_lift,
                               induced_from_multicurve, leq, sp_action,
                               validate)
from levelnerve.complexes import (_subgroup_elements, _subgroups_between,
                                  build_abelian_nerve, delete_curves)
from levelnerve.stablegraph import components
from oracles import (action_natural_every_element, equivalent, maps_onto,
                     module_map_report, product_table,
                     pushout_report_by_kernel, quotient_profile,
                     signed_schreier_vertex_group, transport_mismatches)

A1, B1, A2, B2 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)

NONSEP_KEY = (((1, ()),), ((0, 0),))
SEP_KEY = (((1, ()), (1, ())), ((0, 1),))
PANTS_KEY = (((0, ()), (0, ())), ((0, 1), (0, 1), (0, 1)))
LOOPS2_KEY = (((0, ()),), ((0, 0), (0, 0)))
MIXED_KEY = (((0, ()), (1, ())), ((0, 0), (0, 1)))
EMPTY_KEY = (((2, ()),), ())
CUT_PAIR_KEY = (((1, ()), (1, ())), ((0, 1), (0, 1)))


def by_key(g, n, key):
    for mc in multicurve_catalog(g, n):
        if mc.key == key:
            return mc
    raise AssertionError(f"no catalog type {key}")


# --------------------------------------------------------------------------
# oracles


def unit_multiples(sub):
    """Every generator of a cyclic subgroup, zero vector for the trivial
    one: over Z/m the elements whose cyclic span is the subgroup, found
    among all its elements, independent of the module under test."""
    sp = sub.space
    gens = sub.canonical_gens()
    if not gens:
        return [(0,) * sp.dim]
    if sp.m == 0:
        c = gens[0]
        return [c, tuple(-x for x in c)]
    return [x for x in _subgroup_elements(sp, sub)
            if sp.subgroup([x]) == sub]


def brute_edge_condition(d):
    """Both halves of the edge-set condition checked over every subset of
    edges: connected complements must span primitively with full rank, and
    minimal disconnecting sets must admit generators summing to zero."""
    sp = d.space
    E = len(d.edges)
    if not all(eg.is_cyclic() for eg in d.edge_groups):
        return False

    def connected_without(removed):
        seen = {0}
        grew = True
        while grew:
            grew = False
            for e, (u, v) in enumerate(d.edges):
                if e in removed:
                    continue
                for a, b in ((u, v), (v, u)):
                    if a in seen and b not in seen:
                        seen.add(b)
                        grew = True
        return len(seen) == d.V

    for r in range(E + 1):
        for sub in itertools.combinations(range(E), r):
            if not connected_without(set(sub)):
                continue
            span = sp.subgroup([x for e in sub
                                for x in d.edge_groups[e].canonical_gens()])
            if not (span.invariants == (sp.m,) * len(sub)
                    and span.is_primitive()):
                return False
    for r in range(1, E + 1):
        for sub in itertools.combinations(range(E), r):
            if connected_without(set(sub)):
                continue
            if not all(connected_without(set(sub) - {e}) for e in sub):
                continue
            choices = [unit_multiples(d.edge_groups[e]) for e in sub]
            if not any(not any(sp.reduce([sum(t) for t in zip(*pick)]))
                       for pick in itertools.product(*choices)):
                return False
    return True


def free_nondegenerate(subgroups):
    """The free subgroups W on which no nonzero element pairs to zero with
    all of W, by enumerating W's elements."""
    out = []
    for W in subgroups:
        sp = W.space
        elems = _subgroup_elements(sp, W)
        if W.order == sp.m ** W.rank and not any(
                any(x) and not any(sp.pairing(x, y) for y in elems)
                for x in elems):
            out.append(W)
    return out


def splits_by_definition(vg, ev, complements):
    """Condition vi read literally: ev pairs to zero with vg, and one of
    the free nondegenerate subgroups W of vg is a complement of ev."""
    sp = vg.space
    if any(sp.pairing(x, y) for x in ev.canonical_gens()
           for y in vg.canonical_gens()):
        return False
    return any(W.intersection(ev).order == 1 and W.add(ev) == vg
               for W in complements)


# --------------------------------------------------------------------------
# construction and validity


def test_constructor_rejects_malformed():
    sp = SympSpace(2, 2)
    with pytest.raises(InvalidInputError):
        GraphDecomposition(sp, [[A1]], [[A2]], [(0, 1)])
    with pytest.raises(InvalidInputError):
        GraphDecomposition(sp, [[A1]], [[A2], [A2]], [(0, 0)])
    with pytest.raises(InvalidInputError):
        GraphDecomposition(sp, [[A1], [A2]], [], [])
    with pytest.raises(InvalidInputError):
        GraphDecomposition(sp, [[A1]], [[A2]], [(0, 0)], marks=[(1,)], n=0)
    other = SympSpace(2, 3).subgroup([A1])
    with pytest.raises(InvalidInputError):
        GraphDecomposition(sp, [other], [[A2]], [(0, 0)])
    with pytest.raises(InvalidInputError):
        GraphDecomposition(sp, [], [], [])


def test_validate_input_checks():
    sp = SympSpace(2, 2)
    d = GraphDecomposition(sp, [[A1, B1, A2]], [[A2]], [(0, 0)])
    with pytest.raises(InvalidInputError):
        validate("not a decomposition")
    with pytest.raises(InvalidInputError):
        validate(d, conditions=("vii",))
    assert validate(d, conditions=("ii",)) == []


def test_validate_refuses_a_string_of_conditions():
    # "iv" as a string would check the labels i and v instead of iv
    d = GraphDecomposition(SympSpace(1, 2), [[(1, 0), (0, 1)]], [[]],
                           [(0, 0)])
    assert validate(d, ["iv"]) == ["iv"]
    for conditions in ("iv", "i"):
        with pytest.raises(InvalidInputError, match="collection of labels"):
            validate(d, conditions)


def test_validate_refuses_conditions_that_are_no_collection():
    d = GraphDecomposition(SympSpace(1, 2), [[(1, 0), (0, 1)]], [[]],
                           [(0, 0)])
    for conditions in (5, 2.5, True):
        with pytest.raises(InvalidInputError, match="conditions"):
            validate(d, conditions)
    assert validate(d, {"iv"}) == validate(d, iter(["iv"])) == ["iv"]


def test_loop_decomposition_valid():
    for m in (0, 2, 3):
        sp = SympSpace(2, m)
        d = GraphDecomposition(sp, [[A1, B1, A2]], [[A2]], [(0, 0)])
        assert validate(d) == []
        rows = d.vertex_groups[0].canonical_gens()
        rep = module_map_report(rows, 4, m)
        assert rep["injective"] and rep["coker_free"]
        assert rep["coker_rank"] == d.b1() == 1


def test_loop_decomposition_bad_vertex_group():
    sp = SympSpace(2, 2)
    d = GraphDecomposition(sp, [[A1, B1, B2]], [[A2]], [(0, 0)])
    assert validate(d) == ["iii", "vi"]


def test_separating_decomposition_valid():
    for m in (0, 2, 4):
        sp = SympSpace(2, m)
        d = GraphDecomposition(sp, [[A1, B1], [A2, B2]], [[]], [(0, 1)])
        assert validate(d) == []
        rows = (d.vertex_groups[0].canonical_gens()
                + d.vertex_groups[1].canonical_gens())
        rep = module_map_report(rows, 4, m)
        assert rep["injective"] and rep["coker_free"]
        assert rep["coker_rank"] == d.b1() == 0


@pytest.mark.parametrize("m", [0, 2, 3, 4, 6])
def test_gluing_must_be_injective(m):
    # the image is H in every case, so only the injectivity of the gluing
    # decides condition i: a copy of a1 or b1 left unglued is a kernel
    # element no relation gives; 2a1 is zero mod 2
    sp = SympSpace(1, m)
    a, b, a2 = (1, 0), (0, 1), (2, 0)
    cases = [([[a, b], [a, b]], [[a]], ["i"]),
             ([[a, b], [a]], [[a]], []),
             ([[a, b], [a2]], [[a2]], []),
             ([[a, b], [a2]], [[]], [] if m == 2 else ["i"])]
    for vgroups, egroups, want in cases:
        d = GraphDecomposition(sp, vgroups, egroups, [(0, 1)])
        assert validate(d, ("i",)) == want


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([0, 2, 3, 4, 6, 8, 9, 12]), st.integers(1, 2),
       st.booleans(), st.data())
def test_pushout_report_matches_kernel_oracle(m, g, strict, data):
    # condition i by invariant factors against the kernel route; an edge
    # group lies in both ends, in one end, or in neither
    sp = SympSpace(g, m)
    vec = st.lists(st.integers(-6, 6), min_size=sp.dim, max_size=sp.dim)
    V = data.draw(st.integers(1, 3))
    vgroups = [sp.subgroup(data.draw(st.lists(vec, max_size=sp.dim)))
               for _ in range(V)]
    edges = data.draw(st.lists(st.tuples(st.integers(0, V - 1),
                                         st.integers(0, V - 1)),
                               max_size=3))
    egroups = []
    for u, v in edges:
        inside = data.draw(st.sampled_from(
            [vgroups[u].intersection(vgroups[v]), vgroups[u], None]))
        if inside is None:
            egroups.append(sp.subgroup([data.draw(vec)]))
            continue
        gens = inside.canonical_gens()
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(gens),
                                    max_size=len(gens)))
        egroups.append(sp.subgroup([vec_mat(coeffs, gens)] if gens else []))
    got = decomp._pushout_report(sp, vgroups, edges, egroups, strict)
    assert got == pushout_report_by_kernel(sp, vgroups, edges, egroups,
                                           strict)


def test_vertex_groups_must_be_orthogonal():
    # two nondegenerate planes that meet in 0 but pair nontrivially:
    # <a1, a1 + a2> = 0, <b1, a1 + a2> = -1
    sp = SympSpace(2, 2)
    d = FramedDecomposition(sp, [[A1, B1], [(1, 0, 1, 0), B2]], [[]],
                            [(0, 1)], [sp.zero()])
    assert validate(d) == ["iii"]
    ok = FramedDecomposition(sp, [[A1, B1], [A2, B2]], [[]], [(0, 1)],
                             [sp.zero()])
    assert validate(ok) == []


def test_vertex_splitting_decided_over_Z():
    sp = SympSpace(2, 0)
    # <3a1+2a2, 3b1, b2> = <6b1-9b2> + <3a1+2a2, 3b1-4b2>, pairing 1
    good = GraphDecomposition(
        sp, [[(3, 0, 2, 0), (0, 3, 0, 0), B2]], [[(0, 6, 0, -9)]], [(0, 0)])
    assert validate(good, ("vi",)) == []
    # <a1, 2b1, 3a2, 3b2> is nondegenerate but its Gram determinant is 324
    bad = GraphDecomposition(
        sp, [[A1, (0, 2, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)]], [[]], [(0, 0)])
    assert validate(bad, ("vi",)) == ["vi"]


def test_vertex_splitting_against_definition():
    spaces = [SympSpace(1, m) for m in range(2, 13)]
    spaces += [SympSpace(2, 2), SympSpace(2, 3)]
    pairs = 0
    for sp in spaces:
        subs = _subgroups_between(sp, sp.subgroup([]),
                                  sp.subgroup(sp.identity_matrix()))
        for vg in subs:
            below = [ev for ev in subs
                     if all(map(vg.contains, ev.canonical_gens()))]
            complements = free_nondegenerate(below)
            for ev in below:
                d = GraphDecomposition(sp, [vg], [ev], [(0, 0)])
                want = splits_by_definition(vg, ev, complements)
                assert validate(d, ("vi",)) == ([] if want else ["vi"])
                pairs += 1
    assert pairs == 4756


def test_marks_must_partition():
    sp = SympSpace(2, 2)
    d = GraphDecomposition(sp, [[A1, B1, A2]], [[A2]], [(0, 0)],
                           marks=[()], n=1)
    assert validate(d) == ["ii"]
    d2 = GraphDecomposition(sp, [[A1, B1], [A2, B2]], [[]], [(0, 1)],
                            marks=[(1,), (1,)], n=1)
    assert "ii" in validate(d2)


def test_annulus_violates_only_rank_condition():
    # two parallel copies of the same curve leave an annulus between them:
    # the annulus vertex has two ends but a rank-1 group
    for m in (0, 2, 3):
        sp = SympSpace(2, m)
        d = GraphDecomposition(sp, [[B1], [B1, A2, B2]], [[B1], [B1]],
                               [(0, 1), (0, 1)])
        assert validate(d) == ["v"]
        assert brute_edge_condition(d)


def test_non_primitive_edge_group():
    sp = SympSpace(2, 4)
    d = GraphDecomposition(sp, [[A1, B1, (0, 0, 2, 0)]], [[(0, 0, 2, 0)]],
                           [(0, 0)])
    assert validate(d) == ["i", "iv"]
    assert not brute_edge_condition(d)


def test_bond_sum_violation():
    # two parallel edges <a1>, <a2> over Z/3: no generator choice sums to
    # zero across the bond
    sp = SympSpace(2, 3)
    vg = [A1, A2]
    d = GraphDecomposition(sp, [vg, vg], [[A1], [A2]], [(0, 1), (0, 1)])
    assert "iv" in validate(d)
    assert not brute_edge_condition(d)


def test_bond_without_unit_coordinates_is_rejected():
    # three parallel edges <a1>, <a1>, <a2> over Z/47: S = <a1, a2> is free
    # of rank b1 = 2, but the bond, with its 46**3 generator choices, has
    # no zero sum, since a1 has no a2 coordinate
    sp = SympSpace(2, 47)
    a1, a2 = sp.basis_a(1), sp.basis_a(2)
    d = GraphDecomposition(sp, [[a1, a2]] * 2, [[a1], [a1], [a2]],
                           [(0, 1)] * 3)
    assert validate(d) == ["iv"]


@st.composite
def edge_condition_cases(draw):
    """A connected graph with loops and parallel edges and cyclic edge
    groups, over m in {0, 2, 3, 4, 5, 6, 8}.  Two draws in three have at
    most 2g cotree edges, whose generators are rows of a unitriangular
    matrix and so span a free direct summand, and put each tree edge's
    generator on the cotree generators across its fundamental cut, with
    the support the bond clause needs: in "balanced" mode it is minus
    their signed sum, so the clause holds; in "units" mode every cotree
    generator gets its own random unit and the sum a random unit scale, so
    the clause holds exactly when these units balance.  Otherwise one
    generator is sometimes scaled by 2 or 3."""
    m = draw(st.sampled_from((0, 2, 3, 4, 5, 6, 8)))
    sp = SympSpace(draw(st.integers(1, 2)), m)
    mode = draw(st.sampled_from(("random", "balanced", "units")))
    # units can fail to balance only where cotree edges link tree edges in
    # a cycle, so the tree is then the star at vertex 0 and cotree edges
    # join two leaves: validate's breadth-first tree from vertex 0 is then
    # the drawn tree (in the other modes it may be another spanning tree)
    units = mode == "units"
    V = draw(st.integers(3 if units else 1, 4))
    tree = [(0 if units else draw(st.integers(0, v - 1)), v)
            for v in range(1, V)]
    vertex = st.integers(0, V - 1)
    pair = (st.sampled_from([(a, b) for b in range(V) for a in range(1, b)])
            if units else st.tuples(vertex, vertex))
    cotree = 6 - len(tree) if mode == "random" else min(6 - len(tree), sp.dim)
    edges = tree + draw(st.lists(pair, min_size=2 if units else 0,
                                 max_size=cotree))
    entry = st.integers(-2, 2) if m == 0 else st.integers(0, m - 1)
    gens = [list(draw(st.tuples(*[entry] * sp.dim))) for _ in edges]
    unit = st.sampled_from([k for k in range(-1, max(m, 2))
                            if math.gcd(k, m) == 1])
    if mode != "random":
        for j in range(len(edges) - len(tree)):
            gens[len(tree) + j][:j + 1] = [0] * j + [1]
        for t, (_, child) in enumerate(tree):
            below = {child}
            for u, v in tree[child:]:
                if u in below:
                    below.add(v)
            # the sign of an edge across the cut, from its first end
            sign = [(a in below) - (b in below) for a, b in edges]
            coef = [sign[e] * (draw(unit) if units and sign[e] else 1)
                    for e in range(len(edges))]
            scale = -sign[t] * (draw(unit) if units else 1)
            gens[t] = [scale * sum(coef[e] * gens[e][k]
                                   for e in range(len(tree), len(edges)))
                       for k in range(sp.dim)]
    if edges and not units:
        e = draw(st.integers(0, len(edges) - 1))
        scale = draw(st.sampled_from((1, 1, 2, 3)))
        gens[e] = [scale * x for x in gens[e]]
    return GraphDecomposition(sp, [[]] * V, [[x] for x in gens], edges)


@given(edge_condition_cases())
@example(induced_from_multicurve(2, 0, 2, by_key(2, 0, PANTS_KEY)))
@example(induced_from_multicurve(3, 0, 4, by_key(3, 0, CUT_PAIR_KEY)))
@example(GraphDecomposition(SympSpace(2, 3), [[B1], [B1, A2, B2]],
                            [[B1], [B1]], [(0, 1), (0, 1)]))
@example(GraphDecomposition(SympSpace(2, 3), [[A1, A2], [A1, A2]],
                            [[A1], [A2]], [(0, 1), (0, 1)]))
# <(3, 2, 0, 0)> has canonical generators (3, 0, 0, 0), (0, 2, 0, 0), and
# iv holds; S = <(1, 5), (2, 0)> is primitive but not free, so iv fails
@example(GraphDecomposition(SympSpace(2, 6), [[]] * 2,
                            [[(3, 2, 0, 0)], [(1, 0, 1, 0)], [(2, 4, 5, 0)]],
                            [(0, 1)] * 3))
@example(GraphDecomposition(SympSpace(1, 6), [[]] * 3,
                            [[], [(1, 5)], [(1, 5)], [(2, 0)]],
                            [(0, 1), (0, 2), (0, 2), (2, 2)]))
def test_edge_condition_against_bruteforce(d):
    assert brute_edge_condition(d) == ("iv" not in validate(d, ("iv",)))


@given(st.integers(1, 6), st.data())
def test_tree_cuts_are_the_fundamental_cuts(V, data):
    # a connected multigraph with loops and parallel edges: a path through
    # the vertices in a drawn order and further edges, in a drawn order
    vertex = st.integers(0, V - 1)
    order = data.draw(st.permutations(range(V)))
    extra = data.draw(st.lists(st.tuples(vertex, vertex), max_size=6))
    edges = data.draw(st.permutations(
        [tuple(sorted(e)) for e in list(zip(order, order[1:])) + extra]))
    cotree, cuts = decomp._tree_cuts(V, edges)
    tree = [t for t, _ in cuts]
    assert sorted(tree + list(cotree)) == list(range(len(edges)))
    assert tree == sorted(tree) and list(cotree) == sorted(cotree)
    assert len(components(V, [edges[t] for t in tree])) == 1 == V - len(tree)
    for t, signs in cuts:
        # X: the part of the tree less t that holds the first end of t
        X = next(c for c in components(V, [edges[e] for e in tree if e != t])
                 if edges[t][0] in c)
        assert signs == tuple((a in X) - (b in X)
                              for a, b in map(edges.__getitem__, cotree))


def test_degrees_count_loops_twice():
    sp = SympSpace(2, 2)
    d = GraphDecomposition(sp, [[A1, B1, A2]], [[A2]], [(0, 0)])
    assert d.degrees() == (2,)
    assert d.b1() == 1 and d.rank() == 1


# --------------------------------------------------------------------------
# frames


def test_frame_must_generate():
    sp = SympSpace(2, 4)
    ok = FramedDecomposition(sp, [[A1, B1, A2]], [[A2]], [(0, 0)], [A2])
    assert validate(ok) == []
    bad = FramedDecomposition(sp, [[A1, B1, A2]], [[A2]], [(0, 0)],
                              [(0, 0, 2, 0)])
    assert validate(bad) == ["frame"]


def test_frame_sign_normalized():
    sp = SympSpace(2, 5)
    d1 = FramedDecomposition(sp, [[A1, B1, A2]], [[(0, 0, 2, 0)]], [(0, 0)],
                             [(0, 0, 2, 0)])
    d2 = FramedDecomposition(sp, [[A1, B1, A2]], [[(0, 0, 2, 0)]], [(0, 0)],
                             [(0, 0, 3, 0)])
    assert d1.frames == d2.frames == ((0, 0, 2, 0),)
    assert equivalent(d1, d2)
    assert canonical_form(d1) == canonical_form(d2)


def test_frames_carry_information_only_past_four():
    # over Z/5 the generators a2 and 2*a2 are genuinely different frames
    # for the same edge group; the unframed graphs are equivalent
    sp = SympSpace(2, 5)
    d1 = FramedDecomposition(sp, [[A1, B1, A2]], [[A2]], [(0, 0)], [A2])
    d2 = FramedDecomposition(sp, [[A1, B1, A2]], [[A2]], [(0, 0)],
                             [(0, 0, 2, 0)])
    assert validate(d1) == validate(d2) == []
    assert not equivalent(d1, d2)
    assert canonical_form(d1) != canonical_form(d2)
    p1 = GraphDecomposition(sp, d1.vertex_groups, d1.edge_groups, d1.edges)
    p2 = GraphDecomposition(sp, d2.vertex_groups, d2.edge_groups, d2.edges)
    assert equivalent(p1, p2)


def test_forgetting_frames_loses_nothing_at_two_and_three():
    for m in (2, 3):
        for mc in multicurve_catalog(2, 0):
            d = induced_from_multicurve(2, 0, m, mc)
            base = canonical_form(d)
            for picks in itertools.product(
                    *[unit_multiples(eg) for eg in d.edge_groups]):
                alt = FramedDecomposition(d.space, d.vertex_groups,
                                          d.edge_groups, d.edges,
                                          list(picks), d.marks, d.n)
                assert canonical_form(alt) == base


# --------------------------------------------------------------------------
# equivalence and canonical forms


def test_relabeling_equivalence_matches_canonical():
    rng = random.Random(11)
    for m in (0, 2):
        for mc in multicurve_catalog(2, 0):
            d0 = induced_from_multicurve(2, 0, m, mc)
            perm = list(range(d0.V))
            rng.shuffle(perm)
            d1 = FramedDecomposition(
                d0.space,
                [d0.vertex_groups[perm.index(j)] for j in range(d0.V)],
                d0.edge_groups,
                [(perm[u], perm[v]) for (u, v) in d0.edges],
                d0.frames,
                [d0.marks[perm.index(j)] for j in range(d0.V)], d0.n)
            assert equivalent(d0, d1)
            assert canonical_form(d0) == canonical_form(d1)


def test_distinct_types_are_inequivalent():
    ds = [induced_from_multicurve(2, 0, 2, mc)
          for mc in multicurve_catalog(2, 0)]
    forms = [canonical_form(d) for d in ds]
    assert len(set(forms)) == len(ds)
    for i, j in itertools.combinations(range(len(ds)), 2):
        assert not equivalent(ds[i], ds[j])
        assert forms[i] != forms[j]


def test_equivalent_distinguishes_edge_groups():
    sp = SympSpace(2, 2)
    da = GraphDecomposition(sp, [[A1, A2, B2]], [[A1]], [(0, 0)])
    db = GraphDecomposition(sp, [[A1, B1, A2]], [[A2]], [(0, 0)])
    assert validate(da) == validate(db) == []
    assert not equivalent(da, db)
    assert canonical_form(da) != canonical_form(db)


def test_canonical_form_permutation_cap():
    # ten interchangeable vertices: 10! relabelings exceed the cap
    sp = SympSpace(2, 2)
    ring = GraphDecomposition(sp, [[]] * 10, [[]] * 10,
                              [(i, (i + 1) % 10) for i in range(10)])
    with pytest.raises(ResourceLimitError):
        canonical_form(ring)


def test_kind_mismatch_is_inequivalent():
    sp = SympSpace(2, 2)
    plain = GraphDecomposition(sp, [[A1, B1, A2]], [[A2]], [(0, 0)])
    framed = FramedDecomposition(sp, [[A1, B1, A2]], [[A2]], [(0, 0)], [A2])
    assert not equivalent(plain, framed)


# --------------------------------------------------------------------------
# partial order


def test_leq_reflexive_and_named_pairs():
    cat = multicurve_catalog(2, 0)
    ds = {mc.key: induced_from_multicurve(2, 0, 2, mc) for mc in cat}
    for d in ds.values():
        assert leq(d, d)
    assert leq(ds[SEP_KEY], ds[MIXED_KEY])
    assert leq(ds[NONSEP_KEY], ds[PANTS_KEY])
    assert not leq(ds[NONSEP_KEY], ds[SEP_KEY])
    assert not leq(ds[SEP_KEY], ds[NONSEP_KEY])
    for d in ds.values():
        assert leq(ds[EMPTY_KEY], d)
    assert not leq(ds[PANTS_KEY], ds[NONSEP_KEY])


def test_leq_poset_axioms_on_catalog():
    ds = [induced_from_multicurve(2, 0, 2, mc)
          for mc in multicurve_catalog(2, 0)]
    k = len(ds)
    rel = {(i, j): leq(ds[i], ds[j])
           for i in range(k) for j in range(k)}
    assert sum(1 for (i, j), v in rel.items() if v and i != j) == 14
    for i in range(k):
        for j in range(k):
            if i != j and rel[i, j]:
                assert not rel[j, i]
            for t in range(k):
                if rel[i, j] and rel[j, t]:
                    assert rel[i, t]


def test_leq_requires_matching_ambient():
    d2 = induced_from_multicurve(2, 0, 2, by_key(2, 0, SEP_KEY))
    d3 = induced_from_multicurve(2, 0, 3, by_key(2, 0, SEP_KEY))
    with pytest.raises(InvalidInputError):
        leq(d2, d3)


# --------------------------------------------------------------------------
# constructors from the catalog


def test_induced_nonseparating():
    for m in (0, 2):
        sp = SympSpace(2, m)
        d = induced_from_multicurve(2, 0, m, by_key(2, 0, NONSEP_KEY))
        assert d.V == 1 and d.edges == ((0, 0),)
        c = d.frames[0]
        assert d.edge_groups[0] == sp.subgroup([c])
        assert d.vertex_groups[0] == sp.subgroup([c]).perp()
        assert d.rank() == 1


def test_induced_separating():
    sp = SympSpace(2, 2)
    d = induced_from_multicurve(2, 0, 2, by_key(2, 0, SEP_KEY))
    plane1 = sp.subgroup([A1, B1])
    plane2 = sp.subgroup([A2, B2])
    assert {vg.key() for vg in d.vertex_groups} == \
        {plane1.key(), plane2.key()}
    assert d.edge_groups[0].rank == 0
    assert d.frames == (sp.zero(),)


def test_induced_valid_across_catalogs():
    for (g, n) in ((1, 1), (1, 2), (2, 0), (2, 1)):
        for m in (0, 2, 3, 4):
            for mc in multicurve_catalog(g, n):
                d = induced_from_multicurve(g, n, m, mc)
                assert validate(d) == []
                assert d.rank() == len(mc.words)
                assert sorted(x for mk in d.marks for x in mk) == \
                    list(range(1, n + 1))


def test_induced_valid_sample_genus_three():
    cat = multicurve_catalog(3, 0)
    assert len(cat) == 32
    for mc in cat[::5]:
        d = induced_from_multicurve(3, 0, 2, mc)
        assert validate(d) == []
    for m in (0, 2, 3, 4):
        d = induced_from_multicurve(3, 0, m, by_key(3, 0, CUT_PAIR_KEY))
        assert validate(d) == []
        assert len(d.edges) == 2
        # the two lifted frames agree up to sign
        assert len({f for f in d.frames}) == 1


def test_cut_pair_hand_built():
    for m in (0, 2, 4):
        sp = SympSpace(3, m)
        a1 = sp.basis_a(1)
        neg = sp.reduce([-x for x in a1])
        d = FramedDecomposition(
            sp,
            [[a1, sp.basis_a(2), sp.basis_b(2)],
             [a1, sp.basis_a(3), sp.basis_b(3)]],
            [[a1], [a1]], [(0, 1), (0, 1)], [a1, neg])
        assert validate(d) == []
        assert brute_edge_condition(d)


def test_induced_rejects_foreign_multicurve():
    mc11 = multicurve_catalog(1, 1)[0]
    with pytest.raises(UnsupportedError):
        induced_from_multicurve(2, 0, 2, mc11)


def test_induced_refuses_a_space_of_another_signature():
    mc = by_key(2, 0, SEP_KEY)
    sp = SympSpace(2, 3)
    assert induced_from_multicurve(2, 0, 3, mc, sp).space is sp
    for other in (SympSpace(2, 2), SympSpace(1, 3)):
        with pytest.raises(InvalidInputError):
            induced_from_multicurve(2, 0, 3, mc, other)


# --------------------------------------------------------------------------
# symplectic transport


def test_sp_action_identity_and_inverse():
    sp = SympSpace(2, 3)
    d = induced_from_multicurve(2, 0, 3, by_key(2, 0, SEP_KEY))
    assert canonical_form(sp_action(sp.identity_matrix(), d)) == \
        canonical_form(d)
    F = sp.transvection(sp.basis_a(1))
    Finv = sp.inverse_transvection(sp.basis_a(1))
    assert canonical_form(sp_action(Finv, sp_action(F, d))) == \
        canonical_form(d)


def test_sp_action_preserves_validity_and_transports_frames():
    sp = SympSpace(2, 3)
    F = sp.transvection((1, 1, 0, 1))
    for mc in multicurve_catalog(2, 0):
        d = induced_from_multicurve(2, 0, 3, mc)
        dF = sp_action(F, d)
        assert validate(dF) == []
        assert dF.rank() == d.rank()
        for e in range(len(d.edges)):
            img = sp.mat_apply(d.frames[e], F)
            neg = sp.reduce([-x for x in img])
            assert dF.frames[e] == min(img, neg)


def test_sp_action_functorial():
    sp = SympSpace(2, 3)
    d = induced_from_multicurve(2, 0, 3, by_key(2, 0, PANTS_KEY))
    F = sp.transvection(sp.basis_a(1))
    G = sp.transvection((1, 1, 0, 1))
    lhs = sp_action(F, sp_action(G, d))
    rhs = sp_action(sp.mat_mul(G, F), d)
    assert canonical_form(lhs) == canonical_form(rhs)


@pytest.mark.parametrize("m", [2, 3, 4, 6, 0])
def test_sp_action_frames_match_a_fresh_sign_normal(m):
    """The frames sp_action reads through the checked record's memo equal
    sign_normal(f * F), computed here, for frames given unreduced and
    negated, over Z/m and over Z."""
    sp = SympSpace(2, m)
    gens = sp_group(sp)
    raw = [(1 + m, 0, -1, 0), (0, -1, 0, 0), (-(2 + m), 1, 0, 3 * m + 1)]
    raw += [tuple(-a for a in f) for f in raw]
    d = FramedDecomposition(sp, [[A1, B1, A2, B2]], [[f] for f in raw],
                            [(0, 0)] * len(raw), raw)
    mats = [gens[0], sp.mat_mul(gens[1], gens[2]),
            sp.mat_mul(sp.mat_mul(gens[3], gens[4]), gens[0])]
    for F in mats:
        rec = checked_matrix(sp.g, m, F)
        for f in raw:
            want = sp.sign_normal(vec_mat(f, F))
            assert rec.frame_image(f) == want
            assert rec.frame_image(tuple(-a for a in f)) == want
        for _ in range(2):  # the second transport reads the memo
            dF = sp_action(F, d)
            assert dF.frames == tuple(sp.sign_normal(vec_mat(f, F))
                                      for f in d.frames)
        # and onward from an image, as an orbit walk transports
        for G in mats:
            assert sp_action(G, dF).frames == tuple(
                sp.sign_normal(vec_mat(f, G)) for f in dF.frames)


def test_sp_action_rejects_non_symplectic():
    d = induced_from_multicurve(2, 0, 2, by_key(2, 0, SEP_KEY))
    bad = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 1]]
    with pytest.raises(InvalidInputError):
        sp_action(bad, d)


# --------------------------------------------------------------------------
# constructors from covers


def test_lift_identity_cover_reproduces_base():
    spec = identity_cover(2, 0)
    for m in (2, 3):
        for mc in multicurve_catalog(2, 0):
            dl = induced_from_lift(spec, mc, m)
            db = induced_from_multicurve(2, 0, m, mc)
            assert equivalent(dl.framed(), db)
            assert canonical_form(dl) == canonical_form(db)
            assert dl.rank() == len(mc.words)
            assert dl.matrices == (dl.space.identity_matrix(),)
            assert validate(dl) == []


def test_lift_double_cover_swaps_copies():
    # deck Z/2 with a1 -> 1: the nonseparating curve lifts to two copies
    # in one orbit, and the deck transposition swaps them
    spec = abelian_cover(2, 0, (2,), [(1,), (0,), (0,), (0,)])
    d = induced_from_lift(spec, by_key(2, 0, NONSEP_KEY), 2)
    assert (d.V, len(d.edges)) == (2, 2)
    assert d.edges == ((0, 1), (0, 1))
    assert d.rank() == 1
    assert d.frames == ((0, 0, 0, 1, 0, 0),) * 2
    assert d.vperms == ((0, 1), (1, 0))
    assert d.eperms == ((0, 1), (1, 0))
    assert validate(d) == []


def test_lift_homology_cover_nonseparating():
    h2 = homology_cover(2, 0, 2)
    d = induced_from_lift(h2, by_key(2, 0, NONSEP_KEY), 2)
    assert (d.V, len(d.edges)) == (2, 8)
    assert d.rank() == 1
    assert validate(d) == []


def test_lift_homology_cover_separating():
    h2 = homology_cover(2, 0, 2)
    d = induced_from_lift(h2, by_key(2, 0, SEP_KEY), 2)
    assert (d.V, len(d.edges)) == (8, 16)
    assert d.rank() == 1
    assert validate(d) == []


def test_lift_homology_cover_pants():
    h2 = homology_cover(2, 0, 2)
    d = induced_from_lift(h2, by_key(2, 0, PANTS_KEY), 2)
    assert (d.V, len(d.edges)) == (8, 24)
    assert d.rank() == 3
    assert validate(d) == []


# sha256 of json.dumps(decomposition_to_data(d), sort_keys=True) over the
# 26 lifts below, in their order
LEVEL_TWO_LIFTS_SHA256 = \
    "bedfc62b79aeacd1f70125a87cd337d87cd22783ca27c6b0a40e32e93f88dd67"


def test_every_level_two_lift_is_valid():
    # the lifts of the level-2 genus-2 image complex's seed stage: each
    # catalog type of (2, 0) with curves, its one-curve deletions and its
    # all-but-one deletions, the largest with 16 vertices and 32 edges;
    # their serializations are pinned
    h2 = homology_cover(2, 0, 2)
    count = 0
    digest = hashlib.sha256()
    for mc in multicurve_catalog(2, 0):
        E = len(mc.words)
        if E == 0:
            continue
        subs = [mc]
        if E > 1:
            subs += [delete_curves(mc, {j}) for j in range(E)]
            subs += [delete_curves(mc, set(range(E)) - {j})
                     for j in range(E)]
        for sub in subs:
            d = induced_from_lift(h2, sub, 2)
            assert validate(d) == []
            digest.update(json.dumps(decomposition_to_data(d),
                                     sort_keys=True).encode())
            count += 1
    assert count == 26
    assert digest.hexdigest() == LEVEL_TWO_LIFTS_SHA256


@pytest.mark.parametrize("make, m", [
    (lambda: homology_cover(2, 0, 2), 2),
    (lambda: homology_cover(1, 1, 2), 2),
    (lambda: homology_cover(1, 1, 3), 3),
    (lambda: identity_cover(1, 2), 3),
    (lambda: perm_cover(1, 1, 4, [(1, 2, 3, 0), (1, 0, 2, 3)]), 2),
    (lambda: homology_cover(2, 0, 2), 0),
    (lambda: homology_cover(1, 1, 3), 0),
    (lambda: perm_cover(1, 1, 4, [(1, 2, 3, 0), (1, 0, 2, 3)]), 0),
], ids=["h202", "h112", "h113", "id12", "perm4", "h202z", "h113z", "perm4z"])
def test_sheet_stabilizers_match_signed_oracle(make, m):
    # every piece copy of every catalog type: the stabilizer words of the
    # orbit under the piece generators alone span the same vertex group
    # as the signed-letter transversal with one generator per edge; at
    # m = 0 the spans are compared over Z, where a sign slip shows.  The
    # class rows the lift records are reduced mod m, nonzero and pairwise
    # distinct
    spec = make()
    hom = covers.cover_homology(spec, m)
    table = covers._table(spec)
    space = hom.space
    for mc in multicurve_catalog(spec.g, spec.n):
        cg = covers.lift_cut_graph(spec, mc, m)
        for pi, orb, rows in zip(cg.vert_piece, cg.vert_orbit,
                                 cg.vert_classes):
            want = signed_schreier_vertex_group(space, hom, table,
                                                mc.pieces[pi], orb)
            assert space.subgroup(rows).key() == want.key()
            assert all(r == space.reduce(r) and any(r) for r in rows)
            assert len(set(rows)) == len(rows)


def test_lift_punctured_cover():
    spec = abelian_cover(1, 1, (2,), [(1,), (0,)])
    loop_mc = by_key(1, 1, (((0, (1,)),), ((0, 0),)))
    d = induced_from_lift(spec, loop_mc, 2)
    assert (d.V, len(d.edges), d.n) == (2, 2, 2)
    assert d.rank() == 1
    assert d.marks == ((1,), (2,))
    assert validate(d) == []
    empty_mc = by_key(1, 1, (((1, (1,)),), ()))
    d0 = induced_from_lift(spec, empty_mc, 2)
    assert (d0.V, len(d0.edges), d0.n) == (1, 0, 2)
    assert d0.marks == ((1, 2),)
    assert validate(d0) == []


def test_tampered_action_is_reported():
    spec = abelian_cover(2, 0, (2,), [(1,), (0,), (0,), (0,)])
    d = induced_from_lift(spec, by_key(2, 0, NONSEP_KEY), 2)
    iden = d.space.identity_matrix()
    wrong_matrix = EquivariantDecomposition(
        d.space, d.vertex_groups, d.edge_groups, d.edges, d.frames,
        d.marks, d.n, d.group, [iden, iden], d.vperms, d.eperms)
    assert validate(wrong_matrix) == ["action"]
    wrong_vperm = EquivariantDecomposition(
        d.space, d.vertex_groups, d.edge_groups, d.edges, d.frames,
        d.marks, d.n, d.group, d.matrices, [(0, 1), (0, 1)], d.eperms)
    assert validate(wrong_vperm) == ["action"]
    # the edge swap moved from the generator onto the identity
    wrong_eperm = EquivariantDecomposition(
        d.space, d.vertex_groups, d.edge_groups, d.edges, d.frames,
        d.marks, d.n, d.group, d.matrices, d.vperms, d.eperms[::-1])
    assert wrong_eperm.eperms != d.eperms
    assert validate(wrong_eperm) == ["action"]


def test_tampered_vertex_group_alone_is_reported():
    # only the subgroup map breaks: matrices, perms, frames and marks stay
    h2 = homology_cover(2, 0, 2)
    d = induced_from_lift(h2, by_key(2, 0, SEP_KEY), 2)
    assert validate(d, ("action",)) == []
    sp = d.space
    G = d.vertex_groups[0]
    T = next(T for T in map(sp.transvection, sp.identity_matrix())
             if G.apply(T) != G)
    vgroups = (G.apply(T),) + d.vertex_groups[1:]
    assert vgroups[0].order == G.order
    tampered = EquivariantDecomposition(
        sp, vgroups, d.edge_groups, d.edges, d.frames, d.marks, d.n,
        d.group, d.matrices, d.vperms, d.eperms)
    assert validate(tampered, ("frame", "action")) == ["action"]
    assert "action" in validate(tampered)


def test_tampered_frame_is_reported_by_the_action():
    h2 = homology_cover(2, 0, 2)
    d = induced_from_lift(h2, by_key(2, 0, NONSEP_KEY), 2)
    assert len(set(d.frames)) == len(d.frames)
    frames = (d.frames[1],) + d.frames[1:]
    tampered = EquivariantDecomposition(
        d.space, d.vertex_groups, d.edge_groups, d.edges, frames, d.marks,
        d.n, d.group, d.matrices, d.vperms, d.eperms)
    assert validate(tampered, ("action",)) == ["action"]


def _with_fields(d, group=None, **fields):
    """d's tables under the given group (None: every element is checked),
    with the named fields replaced."""
    tables = {f: getattr(d, f) for f in ("vertex_groups", "edge_groups",
                                         "edges", "frames", "marks", "n",
                                         "matrices", "vperms", "eperms")}
    return EquivariantDecomposition(d.space, group=group,
                                    **{**tables, **fields})


@pytest.mark.parametrize("mutate", [
    lambda d, h: _with_fields(d, d.group, matrices=d.matrices[:1],
                              vperms=d.vperms[:1], eperms=d.eperms[:1]),
    lambda d, h: _with_fields(d, matrices=d.matrices[:1] + (
        ((0,) * d.space.dim,) * d.space.dim,)),
    # the identity on the vertices of a graph with four of them
    lambda d, h: _with_fields(h, vperms=h.vperms[:1] * 2 + h.vperms[2:]),
    lambda d, h: _with_fields(d, edge_groups=(d.space.subgroup([]),)
                              + d.edge_groups[1:]),
    lambda d, h: _with_fields(d, marks=((1, 2), ())),
], ids=["group-order", "not-symplectic", "edge-ends", "edge-group",
        "mark-count"])
def test_each_action_failure_is_reported(mutate):
    # one mutant per failure return of the action check: fewer tables than
    # group elements, then, with no group so that every element is
    # checked, a singular matrix, an edge sent off its image's ends, an
    # edge group not mapped onto its image's and a moved mark
    loop = by_key(1, 1, (((0, (1,)),), ((0, 0),)))
    d = induced_from_lift(abelian_cover(1, 1, (2,), [(1,), (0,)]), loop, 2)
    h = induced_from_lift(homology_cover(2, 0, 2), by_key(2, 0, LOOPS2_KEY),
                          2)
    for good in (d, h):
        assert validate(_with_fields(good), ("action",)) == []
    assert validate(mutate(d, h), ("action",)) == ["action"]


def test_level_two_action_check_stays_packed(monkeypatch):
    h2 = homology_cover(2, 0, 2)
    d2 = induced_from_lift(h2, by_key(2, 0, NONSEP_KEY), 2)
    loop = by_key(1, 1, (((0, (1,)),), ((0, 0),)))
    d3 = induced_from_lift(homology_cover(1, 1, 3), loop, 3)

    def refuse(*args):
        raise AssertionError("dense image or membership called")

    monkeypatch.setattr(symplectic, "vec_mat", refuse)
    monkeypatch.setattr(SympSubgroup, "contains", refuse)
    assert validate(d2, ("action",)) == []
    # m = 3 keeps the dense route
    with pytest.raises(AssertionError, match="dense"):
        validate(d3, ("action",))
    monkeypatch.undo()
    assert validate(d3, ("action",)) == []


def _compose(d):
    """Whether the matrices of d compose as its group: M_a . M_b = M_ab
    for every pair of elements."""
    mul = product_table(d.group)[0]
    sp = d.space
    return all(sp.mat_mul(d.matrices[a], d.matrices[b]) == d.matrices[c]
               for a, row in enumerate(mul) for b, c in enumerate(row))


def _tampered(d, field, c, x):
    """d with the matrix, vperm or eperm of element c replaced by that of
    element x."""
    tables = {f: list(getattr(d, f)) for f in ("matrices", "vperms",
                                              "eperms")}
    tables[field][c] = tables[field][x]
    return EquivariantDecomposition(
        d.space, d.vertex_groups, d.edge_groups, d.edges, d.frames, d.marks,
        d.n, d.group, tables["matrices"], tables["vperms"], tables["eperms"])


@pytest.mark.parametrize("make, m, stricter", [
    (lambda: homology_cover(2, 0, 2), 2, True),
    (lambda: homology_cover(1, 1, 2), 2, False),
    (lambda: homology_cover(1, 1, 3), 3, False),
    # two letters on one image, and one letter on the identity
    (lambda: abelian_cover(1, 1, (4,), [(1,), (1,)]), 2, False),
    (lambda: abelian_cover(1, 1, (4,), [(1,), (1,)]), 3, False),
    (lambda: abelian_cover(1, 1, (4,), [(1,), (0,)]), 2, False),
    (lambda: abelian_cover(1, 1, (4,), [(1,), (0,)]), 3, False),
], ids=["h202", "h112", "h113", "a4-same-2", "a4-same-3", "a4-id-2",
        "a4-id-3"])
def test_generator_check_matches_every_element_oracle(make, m, stricter):
    # on every catalog lift both checks accept.  On a copy with the table
    # entry of one non-generator element c replaced by another element's:
    # an unchanged table passes both; changed perms fail both; a changed
    # matrix fails the generator check, which sees that the matrices no
    # longer compose, and at (2,0,2) some such copies pass the
    # element-by-element check, which reads no matrix product.  (The deck
    # matrices of the genus-1 covers are all the identity.)
    spec = make()
    gens = dict.fromkeys(col[0] for col in spec.group.act)
    others = [c for c in range(spec.group.d) if c not in gens]
    assert others
    only_new_refuses = 0
    for i, mc in enumerate(multicurve_catalog(spec.g, spec.n)):
        d = induced_from_lift(spec, mc, m)
        assert decomp._action_natural(d)
        assert action_natural_every_element(d)
        assert _compose(d)
        c = others[i % len(others)]
        for x in range(spec.group.d):
            for field in ("matrices", "vperms", "eperms"):
                bad = _tampered(d, field, c, x)
                old = action_natural_every_element(bad)
                new = decomp._action_natural(bad)
                if getattr(bad, field) == getattr(d, field):
                    assert old and new
                elif field == "matrices":
                    assert not new
                    if old:
                        assert not _compose(bad)
                        only_new_refuses += 1
                else:
                    assert not old and not new
    assert bool(only_new_refuses) == stricter


def test_action_check_reads_generators_only(monkeypatch):
    # the groups are mapped by the generators of the deck group alone
    h2 = homology_cover(2, 0, 2)
    gens = dict.fromkeys(col[0] for col in h2.group.act)
    assert len(gens) == 4 < h2.group.d
    calls = []
    real = symplectic.CheckedMatrix.maps_onto

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(symplectic.CheckedMatrix, "maps_onto", counting)
    for mc in multicurve_catalog(2, 0):
        d = induced_from_lift(h2, mc, 2)
        calls.clear()
        assert validate(d, ("action",)) == []
        assert len(calls) <= len(gens) * (d.V + len(d.edges))


@st.composite
def level_two_maps(draw):
    """(g, rows of A, transvection vectors of M, how B is made, extra) at
    m = 2, with vectors drawn as bitmasks."""
    g = draw(st.integers(1, 17))
    n = 2 * g
    vec = st.integers(0, 2 ** n - 1).map(
        lambda x: tuple(x >> k & 1 for k in range(n)))
    rows = draw(st.lists(vec, max_size=g + 2))
    tvecs = draw(st.lists(vec, max_size=5))
    how = draw(st.sampled_from(["image", "perturbed", "unrelated"]))
    extra = draw(st.lists(vec, min_size=1, max_size=g + 2))
    return g, rows, tvecs, how, extra


def _identity_rows(n):
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


@given(level_two_maps())
@example((2, [], [(1, 0, 1, 1)], "image", [(0, 0, 0, 0)]))
@example((2, [], [(1, 0, 1, 1)], "unrelated", [(0, 1, 0, 0)]))
@example((3, _identity_rows(6), [(1, 1, 0, 0, 1, 0)], "image",
          [(0,) * 6]))
@example((3, _identity_rows(6), [(1, 1, 0, 0, 1, 0)], "unrelated",
          [(1, 0, 0, 0, 0, 0)]))
@example((3, [(1, 0, 0, 0, 0, 0)], [(0, 1, 0, 0, 0, 0)], "perturbed",
          [(0, 1, 0, 0, 0, 0)]))
def test_packed_maps_onto_matches_dense_oracle(case):
    g, rows, tvecs, how, extra = case
    sp = SympSpace(g, 2)
    M = sp.identity_matrix()
    for v in tvecs:
        M = sp.mat_mul(M, sp.transvection(v))
    F = symplectic.checked_matrix(g, 2, M)
    A = sp.subgroup(rows)
    if how == "image":
        B = A.apply(M)
    elif how == "perturbed":
        B = A.apply(M).apply(sp.transvection(extra[0]))
        assert B.order == A.order
    else:
        B = sp.subgroup(extra)
    want = maps_onto(sp, A, M, F.inverse, B)
    assert F.maps_onto(A, B) == want
    assert want == (A.apply(M) == B)


def test_inverse_memo_keeps_every_verdict():
    spec = abelian_cover(2, 0, (2,), [(1,), (0,), (0,), (0,)])
    d = induced_from_lift(spec, by_key(2, 0, NONSEP_KEY), 2)
    assert validate(d) == []
    bad = [list(r) for r in d.matrices[1]]
    bad[0][2] = (bad[0][2] + 1) % 2
    assert not d.space.is_symplectic(bad)
    tampered = EquivariantDecomposition(
        d.space, d.vertex_groups, d.edge_groups, d.edges, d.frames,
        d.marks, d.n, d.group, [d.matrices[0], bad], d.vperms, d.eperms)
    assert validate(tampered) == ["action"]
    for _ in range(2):
        with pytest.raises(InvalidInputError):
            sp_action(bad, d)
    assert validate(d) == []


def test_inverse_memo_is_keyed_on_the_modulus():
    # symplectic mod 2 (det 3 = 1) but not mod 4
    F = ((1, 0), (0, 3))
    for order in ((2, 4), (4, 2)):
        symplectic.checked_matrix.cache_clear()
        got = {m: symplectic.checked_matrix(1, m, F) for m in order}
        assert {m: (c.inverse, c.packed) for m, c in got.items()} == {
            2: (((1, 0), (0, 1)), (0b01, 0b10)), 4: (None, None)}


@pytest.mark.parametrize("make, key, m", [
    # every deck matrix is the identity on this genus-one cover
    (lambda: homology_cover(1, 1, 3), (((0, (1,)),), ((0, 0),)), 3),
    # the deck involution moves H_1, so conjugating the matrices matters
    (lambda: abelian_cover(2, 0, (2,), [(1,), (0,), (0,), (0,)]),
     NONSEP_KEY, 2),
], ids=["h113", "double202"])
def test_equivariant_transport_matches_checking_constructor(make, key, m):
    spec = make()
    d = induced_from_lift(spec, by_key(spec.g, spec.n, key), m)
    assert d.matrices and d.vperms and d.eperms
    for F in symplectic.sp_group(d.space):
        assert transport_mismatches(F, d) == []


def test_sp_action_transports_equivariant():
    spec = abelian_cover(2, 0, (2,), [(1,), (0,), (0,), (0,)])
    d = induced_from_lift(spec, by_key(2, 0, NONSEP_KEY), 2)
    F = d.space.transvection(d.space.basis_a(1))
    dF = sp_action(F, d)
    assert isinstance(dF, EquivariantDecomposition)
    assert dF.vperms == d.vperms and dF.eperms == d.eperms
    assert validate(dF) == []


# --------------------------------------------------------------------------
# prime moduli: the F_p path against the integer path


def integer_twin(sp, d):
    """d rebuilt in sp from its canonical generators, keeping its kind."""
    groups = ([vg.canonical_gens() for vg in d.vertex_groups],
              [eg.canonical_gens() for eg in d.edge_groups], d.edges)
    if isinstance(d, FramedDecomposition):
        return FramedDecomposition(sp, *groups, d.frames, d.marks, d.n)
    return GraphDecomposition(sp, *groups, d.marks, d.n)


@st.composite
def prime_cases(draw):
    """(valid, second) decompositions over Z/p, p in {2, 3, 5, 7}: a
    catalog decomposition at (1,1), (1,2) or (2,0) moved by a product of
    transvections, and either another catalog decomposition moved alike
    ("other") or a copy with one group changed.  A vertex group is
    replaced by its image under a transvection (same rank, often a
    different group), by a random subgroup, or enlarged by a vector; an
    edge group is replaced by a random cyclic group.  "none" keeps the
    copy valid."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    g, n = draw(st.sampled_from(((1, 1), (1, 2), (2, 0))))
    cat = st.sampled_from(multicurve_catalog(g, n))
    d, other = (induced_from_multicurve(g, n, p, draw(cat))
                for _ in range(2))
    sp = d.space
    vec = st.tuples(*[st.integers(0, p - 1)] * sp.dim)
    for v in draw(st.lists(vec, max_size=3)):
        d = sp_action(sp.transvection(v), d)
        other = sp_action(sp.transvection(v), other)
    vgroups = [vg.canonical_gens() for vg in d.vertex_groups]
    egroups = [eg.canonical_gens() for eg in d.edge_groups]
    how = draw(st.sampled_from(("none", "other", "move", "random",
                                "enlarge", "edge")))
    if how == "other":
        return d, other
    if how == "edge" and egroups:
        egroups[draw(st.integers(0, len(egroups) - 1))] = [draw(vec)]
    elif how != "none":
        v = draw(st.integers(0, d.V - 1))
        x = draw(vec)
        if how == "move":
            vgroups[v] = sp.subgroup(vgroups[v]).apply(sp.transvection(x))
        elif how == "random":
            vgroups[v] = draw(st.lists(vec, max_size=3))
        else:
            vgroups[v] = vgroups[v] + [x]
    return d, GraphDecomposition(sp, vgroups, egroups, d.edges, d.marks,
                                 d.n)


def _with_edge_group(d, e, gens):
    egroups = list(d.edge_groups)
    egroups[e] = gens
    return GraphDecomposition(d.space, d.vertex_groups, egroups, d.edges,
                              d.marks, d.n)


_CUT_PAIR_12 = induced_from_multicurve(
    1, 2, 5, by_key(1, 2, (((0, (1,)), (0, (2,))), ((0, 1), (0, 1)))))


@given(prime_cases())
# the two relations of the cut pair are dependent; with one edge group
# trivial, or below the glued pants, the relations left are independent
@example((_CUT_PAIR_12, _with_edge_group(_CUT_PAIR_12, 1, [])))
@example((induced_from_multicurve(2, 0, 3, by_key(2, 0, NONSEP_KEY)),
          induced_from_multicurve(2, 0, 3, by_key(2, 0, PANTS_KEY))))
def test_prime_path_agrees_with_integer_path(case):
    # a copy of the space with the prime flag off takes the integer path;
    # the keys agree because both paths give the same Hermite form
    sp = case[0].space
    twin_space = SympSpace(sp.g, sp.m)
    twin_space.prime = False
    twins = [integer_twin(twin_space, d) for d in case]
    for d, t in zip(case, twins):
        assert [vg.key() for vg in d.vertex_groups] \
            == [vg.key() for vg in t.vertex_groups]
        assert validate(d) == validate(t)
        for sub, tsub in zip(d.vertex_groups + d.edge_groups,
                             t.vertex_groups + t.edge_groups):
            assert sub.perp().key() == tsub.perp().key()
            assert sub.radical().key() == tsub.radical().key()
    assert validate(case[0]) == []
    for a, b in ((0, 1), (1, 0)):
        assert leq(case[a], case[b]) == leq(twins[a], twins[b])


def test_prime_validate_skips_integer_hnf_and_snf(monkeypatch):
    X = build_abelian_nerve(1, 1, 3)
    stored = [d for block in X.decomps for d in block]
    pants = [induced_from_multicurve(2, 0, 3, mc)
             for mc in multicurve_catalog(2, 0)]
    loop = by_key(1, 1, (((0, (1,)),), ((0, 0),)))
    # the loop decomposition over Z/4 and Z/6, intact and with one group
    # changed: the vertex group at m = 4, the edge group at m = 6; in a
    # space of their own, since induced_from_multicurve validates d and
    # d.space keeps the answers
    composite = []
    for m, vgroup, egroup in ((4, [(2, 0), (0, 1)], None),
                              (6, None, [(2, 0)])):
        d = induced_from_multicurve(1, 1, m, loop)
        space = SympSpace(1, m)
        vg = d.vertex_groups[0].canonical_gens()
        eg = d.edge_groups[0].canonical_gens()
        composite += [GraphDecomposition(space, [v], [e], d.edges, d.marks,
                                         d.n)
                      for v, e in ((vg, eg), (vgroup or vg, egroup or eg))]

    def refuse(*args):
        raise AssertionError("integer Hermite or Smith form called")

    for name in ("hnf", "hnf_transform", "int_row_kernel", "mod_row_kernel",
                 "_int_coords", "snf_diagonal"):
        monkeypatch.setattr(symplectic, name, refuse)
    assert len(stored) == 4
    assert all(validate(d) == [] for d in stored + pants)
    assert all(leq(pants[-1], d) for d in pants)
    for d in composite:
        with pytest.raises(AssertionError, match="integer"):
            validate(d)
    monkeypatch.undo()
    assert [validate(d) for d in composite] \
        == [[], ["i", "iii", "vi"], [], ["iii", "iv", "vi"]]


@pytest.mark.parametrize("m", [0, 2, 3, 4, 6])
def test_quotient_rank_and_corank_match_reference(m):
    # every ordered pair among the vertex and edge groups of the catalog
    # decompositions, their doubles (not free over Z/4, Z/6 or Z), the
    # glued image of condition i, H and 0
    seen = Counter()
    for g, n in ((1, 1), (1, 2), (2, 0)):
        for mc in multicurve_catalog(g, n):
            d = induced_from_multicurve(g, n, m, mc)
            sp = d.space
            H = sp.subgroup(sp.identity_matrix())
            subs = list(d.vertex_groups + d.edge_groups)
            subs += [sp.subgroup([[2 * a for a in x]
                                  for x in sub.canonical_gens()])
                     for sub in subs]
            subs += [decomp._pushout_report(sp, d.vertex_groups, d.edges,
                                            d.edge_groups)[2],
                     H, sp.subgroup([])]
            for outer in subs:
                for inner in subs:
                    contained, free, rank = quotient_profile(inner, outer)
                    want = rank if contained and free else None
                    assert outer.quotient_rank(inner) == want
                    seen[(contained, free)] += 1
                    if outer is H:
                        assert inner.corank() == want
    assert seen[(True, True)] and seen[(False, False)]
    assert bool(seen[(True, False)]) == (m in (0, 4, 6))


# --------------------------------------------------------------------------
# serialization


def test_data_round_trip():
    cases = [
        induced_from_multicurve(2, 0, 2, by_key(2, 0, SEP_KEY)),
        induced_from_multicurve(2, 0, 0, by_key(2, 0, NONSEP_KEY)),
        GraphDecomposition(SympSpace(2, 2), [[A1, B1, A2]], [[A2]],
                           [(0, 0)]),
    ]
    spec = abelian_cover(2, 0, (2,), [(1,), (0,), (0,), (0,)])
    cases.append(induced_from_lift(spec, by_key(2, 0, NONSEP_KEY), 2))
    for d in cases:
        data = decomposition_to_data(d)
        back = decomposition_from_data(data)
        assert type(back).__name__ == type(d).__name__
        assert equivalent(d, back)
        assert validate(back) == validate(d)
    eq = cases[-1]
    back = decomposition_from_data(decomposition_to_data(eq))
    assert back.vperms == eq.vperms and back.eperms == eq.eperms
    assert back.matrices == eq.matrices


def test_from_data_rejects_malformed():
    with pytest.raises(InvalidInputError):
        decomposition_from_data({"edges": []})
    with pytest.raises(InvalidInputError):
        decomposition_from_data({
            "space": {"genus": 2, "modulus": 2}, "n": 0, "vertices": 2,
            "edges": [[0, 1]], "vertex_groups": [[[1, 0, 0, 0]]],
            "edge_groups": [[]]})
