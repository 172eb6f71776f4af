"""Catalog of multicurve representatives: coverage, words, piece data."""

import hashlib

import pytest

from levelnerve import catalog
from levelnerve.catalog import (
    MulticurveRep,
    catalog_coverage,
    multicurve_catalog,
)
from levelnerve.errors import InvalidInputError, UnsupportedError
from levelnerve.stablegraph import StableGraph, enumerate_stable_graphs
from levelnerve.surface import presentation
from levelnerve.words import FoldedGraph, conjugate_in_free, winv, wmul
from oracles import laminar_families, standard_multicurve


def test_small_signatures_fully_covered():
    for (g, n, count) in [(1, 1, 2), (1, 2, 5), (2, 0, 7), (2, 1, 16)]:
        realized, missing = catalog_coverage(g, n)
        assert missing == []
        assert len(realized) == count
        assert len(multicurve_catalog(g, n)) == count


@pytest.mark.parametrize("call, g, n", [
    (multicurve_catalog, True, 1), (multicurve_catalog, 1.0, 1),
    (multicurve_catalog, 1, True), (catalog_coverage, True, 1),
    (enumerate_stable_graphs, 1.0, 1), (enumerate_stable_graphs, True, 1),
    (enumerate_stable_graphs, 1, True),
], ids=["catalog-bool", "catalog-float", "catalog-n-bool", "coverage-bool",
        "graphs-float", "graphs-bool", "graphs-n-bool"])
def test_signature_checked_before_the_cache(call, g, n):
    """With (1,1) cached, a bool or float signature entry is refused, not
    answered from the entry of 1."""
    call(1, 1)
    with pytest.raises(InvalidInputError):
        call(g, n)


def test_lookup_matches_type():
    for t in [StableGraph([(2, ())], []),
              StableGraph([(1, ())], [(0, 0)]),
              StableGraph([(1, ()), (1, ())], [(0, 1)]),
              StableGraph([(0, ()), (0, ())], [(0, 1)] * 3)]:
        rep = standard_multicurve(t)
        assert rep.graph.is_isomorphic(t)


def test_unreachable_type_raises():
    # separating the two punctures needs a curve outside the vocabulary
    t = StableGraph([(1, (1,)), (1, (2,))], [(0, 1)])
    with pytest.raises(UnsupportedError):
        standard_multicurve(t)


def test_out_of_range_raises():
    with pytest.raises(UnsupportedError):
        multicurve_catalog(4, 0)
    with pytest.raises(UnsupportedError):
        multicurve_catalog(0, 2)
    with pytest.raises(UnsupportedError):
        multicurve_catalog(1, 0)


def test_empty_rep():
    rep = standard_multicurve(StableGraph([(2, ())], []))
    assert rep.words == ()
    assert rep.rank() == -1
    assert len(rep.pieces) == 1
    piece = rep.pieces[0]
    assert piece.genus == 2
    assert FoldedGraph(piece.gens, 4).generates_ambient()


def test_nonseparating_loop_word_pinned():
    rep = standard_multicurve(StableGraph([(1, ())], [(0, 0)]))
    p = presentation(2, 0)
    assert [p.format(w) for w in rep.words] == ["B1a2b2A2B2"]
    assert any(c % 2 for c in p.homology_class(rep.words[0]))
    assert rep.rank() == 0


def test_separating_word_bounds_genus_one():
    rep = standard_multicurve(StableGraph([(1, ()), (1, ())], [(0, 1)]))
    (w,) = rep.words
    p = presentation(2, 0)
    assert all(c == 0 for c in p.homology_class(w))
    assert p.format(w) == "a1b2a2B2A2b1A1B1a2b2A2B2"
    # both sides are genus-1 pieces; the root piece also carries the
    # once-punctured public model's extra slot, so its rank is one higher
    assert [piece.genus for piece in rep.pieces] == [1, 1]
    ranks = [FoldedGraph(piece.gens, 4).rank() for piece in rep.pieces]
    assert sorted(ranks) == [2, 3]


def test_theta_pieces():
    rep = standard_multicurve(StableGraph([(0, ()), (0, ())], [(0, 1)] * 3))
    assert len(rep.pieces) == 2
    assert all(piece.genus == 0 for piece in rep.pieces)
    assert len(rep.words) == 3
    # non-bridge curves; no pair disconnects the theta graph
    assert rep.graph.bridges() == []
    assert rep.graph.minimal_two_cuts() == []
    # oriented boundary of each piece: some signed sum of all three vanishes
    p = presentation(2, 0)
    classes = [p.homology_class(w) for w in rep.words]
    assert all(any(c != 0 for c in cls) for cls in classes)
    ok = False
    for s2 in (1, -1):
        for s3 in (1, -1):
            tot = [a + s2 * b + s3 * c for a, b, c in zip(*classes)]
            ok = ok or all(t == 0 for t in tot)
    assert ok


def test_homology_reproduces_edge_classification():
    for (g, n) in [(2, 0), (1, 1), (2, 1)]:
        p = presentation(g, n)
        for rep in multicurve_catalog(g, n):
            bridges = rep.graph.bridges()
            classes = [p.homology_class(w) for w in rep.words]
            for i, cls in enumerate(classes):
                assert (i in bridges) == all(c == 0 for c in cls)
            for (i, j) in rep.graph.minimal_two_cuts():
                su = [a + b for a, b in zip(classes[i], classes[j])]
                di = [a - b for a, b in zip(classes[i], classes[j])]
                assert all(c == 0 for c in su) or all(c == 0 for c in di)


def test_side_data_solves_boundary_loops():
    rep = standard_multicurve(StableGraph([(0, ()), (0, ())], [(0, 1)] * 3))
    folded = [FoldedGraph(piece.gens, 4) for piece in rep.pieces]
    for word, sides in zip(rep.words, rep.sides):
        assert len(sides) == 2
        for s in sides:
            loop = wmul(s.conj, word if s.sign > 0 else winv(word),
                        winv(s.conj))
            assert folded[s.piece].contains(loop)


def test_marks_carry_puncture_loops():
    rep = standard_multicurve(StableGraph([(0, (1,))], [(0, 0)]))
    p = presentation(1, 1)
    ((idx, loop),) = rep.pieces[0].marks
    assert idx == 1
    assert conjugate_in_free(loop, p.puncture_word(1))
    fg = FoldedGraph(rep.pieces[0].gens, p.cover_rank())
    assert fg.contains(loop)


def test_genus_three_cut_pair_realized():
    rep = standard_multicurve(StableGraph([(1, ()), (1, ())],
                                          [(0, 1), (0, 1)]))
    assert rep.graph.bridges() == []
    assert rep.graph.minimal_two_cuts() == [(0, 1)]
    p = presentation(3, 0)
    c0, c1 = [p.homology_class(w) for w in rep.words]
    assert any(c != 0 for c in c0)
    assert (all(a + b == 0 for a, b in zip(c0, c1))
            or all(a - b == 0 for a, b in zip(c0, c1)))


def test_piece_counts_by_type():
    for rep in multicurve_catalog(2, 0):
        assert len(rep.pieces) == rep.graph.n_vertices()
        assert len(rep.words) == rep.graph.n_edges()
        assert rep.graph.genus() == 2 and rep.graph.is_stable()


CATALOG_SHA256 = {
    (1, 1): "91072ac0642718bf8df9f9606ce174b31c9e64be3256cf01f49c8a8085e9b560",
    (1, 2): "ab7da2fc35c9c68d684c758d0f006efa6b3e41c9272abf62f6da385493fde71a",
    (2, 0): "b34b9233162549a588dbd3ace7bbc654df0a303febad6b734a0168c2827d10aa",
    (2, 1): "58bf9b0106dd0aeac25280e925cc3b70ed11815924fa8f5593c1330d6b668723",
    (2, 2): "59fd2449ab773acbae4554e1d8b1e8434cd5a4ea67a304ed18fcb38074fa999f",
    (3, 0): "529e5e437944dd2d9277336f73437cbc25dd971b46e4cbdb3093f44bd2ae813f",
    (3, 1): "4bed8bbd64735abad4baea3ccc97af94e5036ce03c280cdbaed625c79510179d",
}


@pytest.mark.parametrize("g, n", sorted(CATALOG_SHA256))
def test_catalog_representatives_pinned(g, n):
    # the realized words, pieces and sides, not only the types, are what
    # covers and nerves transport, so every byte of them is pinned
    h = hashlib.sha256()
    for rep in multicurve_catalog(g, n):
        h.update(repr((rep.key, rep.words, rep.pieces, rep.sides)).encode())
    assert h.hexdigest() == CATALOG_SHA256[(g, n)]


def test_word_stage_runs_once_per_kept_type(monkeypatch):
    # families of an already realized type stop after the combinatorial
    # stage, so only the kept reps are built and audited
    calls = []
    audit = catalog._audit

    def counting(rep):
        calls.append(rep.key)
        audit(rep)

    monkeypatch.setattr(catalog, "_audit", counting)
    found = catalog._catalog.__wrapped__(3, 0)
    assert len(found) == 32
    assert len(calls) == len(found)
    assert sorted(calls) == sorted(found)


def test_each_dual_graph_is_keyed_once(monkeypatch):
    # families that assemble the same dual graph share one canonical key;
    # the stable graphs are enumerated first so that only the catalog's
    # own keys are counted
    enumerate_stable_graphs(3, 0)
    calls = []
    key = StableGraph.canonical_key

    def counting(self):
        calls.append(1)
        return key(self)

    monkeypatch.setattr(StableGraph, "canonical_key", counting)
    found = catalog._catalog.__wrapped__(3, 0)
    assert len(found) == 32
    # 290 distinct dual graphs, and one enumerated type whose stored key
    # is checked; the wanted types and the realized reps carry their keys
    assert len(calls) <= 291


# sha256 of repr(list of rejected families), DFS order, with the number of
# accepted families, as recorded by the realization that built every
# family's words before deciding stability
STABILITY_REJECTS = {
    (2, 0): (79, 43, "91788dda9222b1e91520837b61b9a669"
                     "63c277b201e228cdcad4f5ea3e146310"),
    (2, 1): (132, 85, "00621e2f8556f2f9c4ca148d8af8f326"
                      "3d536c77f9043a31e69ece30c3eaf454"),
    (2, 2): (110, 197, "cf796b37ae2218a9979da7377c690d8b"
                       "923ee99185513d1104133925a92cfa9f"),
}


@pytest.mark.parametrize("g, n", sorted(STABILITY_REJECTS))
def test_combinatorial_stage_agrees_with_word_stage(g, n):
    # every family of the unpruned search, so the piece bookkeeping check
    # also runs below the rejected families that the catalog never extends
    real = catalog._Realizer(g, n)
    rejected, accepted = [], 0
    for family in laminar_families(real.B, 3 * g - 3 + n):
        lay = real.layout(family)
        if lay is None:
            rejected.append(family)
            continue
        # audits the words against the graph
        rep = real.realize(lay)
        assert rep.key == rep.graph.canonical_key()
        accepted += 1
    digest = hashlib.sha256(repr(rejected).encode()).hexdigest()
    assert (len(rejected), accepted, digest) == STABILITY_REJECTS[(g, n)]


@pytest.mark.parametrize("g, n", [(1, 1), (1, 2), (2, 0), (2, 1), (2, 2),
                                  (3, 0), (3, 1), (3, 2)])
def test_pruned_search_matches_oracle(g, n):
    # rejection is monotone: the pruned search keeps every accepted family
    # in order, and no family extending a rejected one is accepted
    oracle = catalog._Realizer(g, n)
    accepted, rejected = [], set()
    for family in laminar_families(oracle.B, 3 * g - 3 + n):
        if oracle.layout(family) is None:
            rejected.add(family)
        else:
            assert not any(family[:j] in rejected
                           for j in range(len(family)))
            accepted.append(family)
    pruned = catalog._families(catalog._Realizer(g, n))
    assert [family for family, _ in pruned] == accepted


def test_search_lays_out_only_unrejected_prefixes(monkeypatch):
    # at (3,0) the unpruned search lays out 4 832 families, 3 735 of them
    # rejected; pruning leaves the 1 097 accepted ones and the 230 rejected
    # families whose every proper prefix is accepted
    calls = []
    layout = catalog._Realizer.layout

    def counting(self, family):
        calls.append(family)
        return layout(self, family)

    monkeypatch.setattr(catalog._Realizer, "layout", counting)
    assert len(catalog._catalog.__wrapped__(3, 0)) == 32
    assert len(calls) == 1327
    B = catalog._Realizer(3, 0).B
    assert len(list(laminar_families(B, 6))) == 4832
