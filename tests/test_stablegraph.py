import networkx as nx
import pytest
from hypothesis import given, strategies as st

from levelnerve import catalog, stablegraph
from levelnerve.errors import InvalidInputError, ResourceLimitError
from levelnerve.stablegraph import (StableGraph, _all_stable_graphs,
                                    _degenerations, enumerate_stable_graphs,
                                    max_rank)
from oracles import (automorphisms, contract_edge, encoded_key,
                     stable_graphs_by_filter)

COUNTS = {(0, 4): 3, (0, 5): 25, (0, 6): 235, (1, 1): 1, (1, 2): 4,
          (1, 3): 22, (1, 4): 162, (2, 0): 6, (2, 1): 15, (2, 2): 74,
          (3, 0): 41, (3, 1): 180}


def find_type(graphs, n_vertices, n_edges, n_loops, genera):
    out = []
    for sg in graphs:
        loops = sum(1 for (u, v) in sg.edges if u == v)
        if (sg.n_vertices(), sg.n_edges(), loops,
                tuple(sorted(g for g, _ in sg.vertices))) == \
                (n_vertices, n_edges, n_loops, tuple(sorted(genera))):
            out.append(sg)
    assert len(out) == 1, f"expected unique type, got {len(out)}"
    return out[0]


def test_enumerate_2_0():
    graphs = enumerate_stable_graphs(2, 0)
    assert len(graphs) == 6
    with_empty = enumerate_stable_graphs(2, 0, include_empty=True)
    assert len(with_empty) == 7
    # the six nonempty types
    find_type(graphs, 1, 1, 1, [1])          # nonseparating curve
    find_type(graphs, 1, 2, 2, [0])          # two nonseparating curves
    find_type(graphs, 2, 1, 0, [1, 1])       # separating curve
    find_type(graphs, 2, 2, 1, [0, 1])       # loop plus bridge
    find_type(graphs, 2, 3, 0, [0, 0])       # theta
    find_type(graphs, 2, 3, 2, [0, 0])       # dumbbell
    for sg in graphs:
        assert sg.is_stable()
        assert sg.genus() == 2
        assert sg.marks() == ()


def test_enumerate_1_1():
    graphs = enumerate_stable_graphs(1, 1)
    assert len(graphs) == 1
    sg = graphs[0]
    assert sg.n_vertices() == 1
    assert sg.edges == [(0, 0)]
    assert sg.vertices == [(0, (1,))]
    assert len(enumerate_stable_graphs(1, 1, include_empty=True)) == 2


def test_enumerate_1_0_empty():
    assert enumerate_stable_graphs(1, 0) == ()
    assert enumerate_stable_graphs(1, 0, include_empty=True) == ()


def test_enumerate_3_0_sane():
    graphs = enumerate_stable_graphs(3, 0)
    assert len(graphs) > 6
    for sg in graphs:
        assert sg.is_stable()
        assert sg.genus() == 3
    keys = [sg.canonical_key() for sg in graphs]
    assert len(set(keys)) == len(keys)


def test_canonical_isomorphism():
    a = StableGraph([(1, ()), (0, ())], [(0, 1), (1, 1), (0, 1)])
    b = StableGraph([(0, ()), (1, ())], [(1, 0), (0, 0), (0, 1)])
    assert a.is_isomorphic(b)
    c = StableGraph([(1, ()), (0, ())], [(0, 1), (0, 0), (0, 1)])
    assert not a.is_isomorphic(c)


def test_theta_automorphisms():
    theta = StableGraph([(0, ()), (0, ())], [(0, 1), (0, 1), (0, 1)])
    assert len(automorphisms(theta)) == 2
    assert theta.b1() == 2
    assert theta.genus() == 2


def test_contractions():
    graphs = enumerate_stable_graphs(2, 0)
    theta = find_type(graphs, 2, 3, 0, [0, 0])
    two_loops = find_type(graphs, 1, 2, 2, [0])
    dumbbell = find_type(graphs, 2, 3, 2, [0, 0])
    loop_bridge = find_type(graphs, 2, 2, 1, [0, 1])
    sep = find_type(graphs, 2, 1, 0, [1, 1])
    nonsep = find_type(graphs, 1, 1, 1, [1])

    assert contract_edge(theta, 0).is_isomorphic(two_loops)
    bridge_idx = dumbbell.bridges()[0]
    assert contract_edge(dumbbell, bridge_idx).is_isomorphic(two_loops)
    loop_idx = next(i for i, (u, v) in enumerate(dumbbell.edges) if u == v)
    assert contract_edge(dumbbell, loop_idx).is_isomorphic(loop_bridge)
    assert contract_edge(nonsep, 0).genus() == 2
    assert contract_edge(sep, 0).n_vertices() == 1


def test_cut_classification():
    graphs = enumerate_stable_graphs(2, 0)
    dumbbell = find_type(graphs, 2, 3, 2, [0, 0])
    assert len(dumbbell.bridges()) == 1
    theta = find_type(graphs, 2, 3, 0, [0, 0])
    assert theta.bridges() == []
    assert theta.minimal_two_cuts() == []
    square = StableGraph([(1, ())] * 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert square.bridges() == []
    assert len(square.minimal_two_cuts()) == 6
    line = StableGraph([(1, ()), (1, ()), (1, ())], [(0, 1), (1, 2)])
    assert set(line.bridges()) == {0, 1}


def test_degree_counts_loops_twice():
    sg = StableGraph([(0, (1,))], [(0, 0)])
    assert sg.degrees()[0] == 2
    assert sg.is_stable()


def test_canonical_key_permutation_cap():
    # ten interchangeable vertices: 10! relabelings exceed the cap
    ring = StableGraph([(1, ())] * 10, [(i, (i + 1) % 10) for i in range(10)])
    with pytest.raises(ResourceLimitError):
        ring.canonical_key()
    with pytest.raises(ResourceLimitError):
        encoded_key(ring)


# every signature of dimension 3g-3+n <= 5 but (0,8), whose 39 207 types
# take the filtering oracle about a minute, and the genus-3 signatures the
# catalog reads
FILTER_SIGS = [(g, n) for g in range(3) for n in range(8)
               if 3 * g - 3 + n <= 5] + [(3, 0), (3, 1)]


@pytest.mark.parametrize("sig", FILTER_SIGS, ids=str)
def test_enumeration_matches_filter_oracle(sig):
    got = enumerate_stable_graphs(*sig)
    want = stable_graphs_by_filter(*sig)
    assert [(t.vertices, t.edges) for t in got] == \
        [(t.vertices, t.edges) for t in want]


@pytest.mark.parametrize("sig", [(2, 0), (2, 2), (0, 6), (3, 0), (3, 1)],
                         ids=str)
def test_enumerated_types_carry_their_keys(sig):
    # the catalog reads these stored keys instead of computing them
    types = enumerate_stable_graphs(*sig, include_empty=True)
    assert all(t.key == t.canonical_key() for t in types)


def test_enumeration_builds_only_stable_candidates(monkeypatch):
    # every raw candidate of every (3,1) type, the smooth one included, is
    # a stable genus-3 graph in raw form: sorted edges of sorted pairs
    for t in enumerate_stable_graphs(3, 1, include_empty=True):
        for raw in _degenerations(*t.key):
            sg = StableGraph(*raw)
            assert raw == (tuple(sg.vertices), tuple(sorted(sg.edges)))
            assert sg.is_stable() and sg.genus() == 3
            assert len(sg.edges) == len(t.edges) + 1
    keyed = []
    key = stablegraph._canonical_key

    def counted(vertices, edges):
        keyed.append(1)
        return key(vertices, edges)

    monkeypatch.setattr(stablegraph, "_canonical_key", counted)
    graphs = _all_stable_graphs.__wrapped__(3, 1)
    assert len(graphs) == 180
    # _degenerations yields 1 879 stable candidates; only the 1 083 that
    # are distinct within their parent are keyed
    assert len(keyed) <= 1083


@pytest.mark.parametrize("g, n", [(2.5, 0), (2, 1.0), (True, 0)])
def test_max_rank_refuses_a_signature_that_is_not_ints(g, n):
    # max_rank(2.5, 0) answered 3.5
    with pytest.raises(InvalidInputError):
        stablegraph.max_rank(g, n)


def test_bad_inputs():
    with pytest.raises(InvalidInputError):
        StableGraph([(0, ())], [(0, 1)])
    with pytest.raises(InvalidInputError):
        StableGraph([(-1, ())], [])


@pytest.mark.parametrize("sig", sorted(COUNTS), ids=str)
def test_counts(sig):
    graphs = enumerate_stable_graphs(*sig)
    assert len(graphs) == COUNTS[sig]
    for sg in graphs:
        assert sg.is_stable() and sg.genus() == sig[0]
        assert sg.marks() == tuple(range(1, sig[1] + 1))


def as_networkx(sg):
    G = nx.MultiGraph()
    for v, (g, mk) in enumerate(sg.vertices):
        G.add_node(v, label=(g, mk))
    G.add_edges_from(sg.edges)
    return G


@pytest.mark.parametrize("sig", [(2, 2), (0, 6)], ids=str)
def test_types_pairwise_nonisomorphic(sig):
    graphs = [as_networkx(sg) for sg in enumerate_stable_graphs(*sig)]
    same = lambda a, b: a["label"] == b["label"]
    for i, a in enumerate(graphs):
        for b in graphs[i + 1:]:
            assert not nx.is_isomorphic(a, b, node_match=same)


@pytest.mark.parametrize("sig", sorted(COUNTS), ids=str)
def test_contractions_stay_in_the_list(sig):
    keys = {sg.canonical_key() for sg in enumerate_stable_graphs(*sig)}
    smooth = StableGraph([(sig[0], range(1, sig[1] + 1))], [])
    keys.add(smooth.canonical_key())
    for sg in enumerate_stable_graphs(*sig):
        for i in range(sg.n_edges()):
            assert contract_edge(sg, i).canonical_key() in keys


ORACLE_SIGS = sorted(set(COUNTS) | set(FILTER_SIGS))


@st.composite
def relabeled(draw):
    """A listed graph of a signature of COUNTS or FILTER_SIGS, and the same
    graph with its vertices renamed and its edges shuffled."""
    sig = draw(st.sampled_from([sig for sig in ORACLE_SIGS
                                if max_rank(*sig) >= 0]))
    sg = draw(st.sampled_from(enumerate_stable_graphs(*sig)))
    perm = draw(st.permutations(range(sg.n_vertices())))
    verts = [None] * sg.n_vertices()
    for v, vert in enumerate(sg.vertices):
        verts[perm[v]] = vert
    edges = draw(st.permutations([(perm[v], perm[u])
                                  for (u, v) in sg.edges]))
    return sg, StableGraph(verts, edges)


@given(relabeled())
def test_canonical_key_is_relabeling_invariant(pair):
    sg, other = pair
    assert other.canonical_key() == encoded_key(other) == sg.canonical_key()


@pytest.mark.parametrize("sig", ORACLE_SIGS, ids=str)
def test_canonical_key_matches_encoded_oracle(sig):
    for sg in enumerate_stable_graphs(*sig, include_empty=True):
        assert sg.canonical_key() == encoded_key(sg)


@pytest.mark.parametrize("sig", [(2, 2), (3, 0), (3, 1)], ids=str)
def test_catalog_dual_graph_keys_match_encoded_oracle(sig, monkeypatch):
    # the raw dual graphs the catalog assembles and keys
    graphs = []
    key = StableGraph.canonical_key

    def recording(self):
        graphs.append(self)
        return key(self)

    monkeypatch.setattr(StableGraph, "canonical_key", recording)
    catalog._catalog.__wrapped__(*sig)
    monkeypatch.undo()
    assert len(graphs) > 1
    for sg in graphs:
        assert sg.canonical_key() == encoded_key(sg)
