"""The benchmark's workloads: one op each through the public levelnerve API.

Every input is a fixed signature of exact, deterministic algebra, so the
benchmark seed has nothing to generate; it is recorded and otherwise
unused.  An op returns its phase timings and raw outputs; verify() then
checks the outputs, outside the timed region, and fingerprints them with
sha256 so that two commits can be compared for changed output.
"""

import hashlib
import json
import resource
import time
from dataclasses import dataclass
from typing import Callable

from levelnerve import catalog, complexes, covers, decomp, stablegraph
from levelnerve.surface import presentation, twist_automorphisms
from speed import Sampler

clock = time.perf_counter


def _digest(parts):
    """sha256 over the JSON encodings of an iterable of parts."""
    h = hashlib.sha256()
    for part in parts:
        h.update(json.dumps(part, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


# --------------------------------------------------------------------------
# abelian nerves: build, invariants, cross validation


def _nerve_op(m, invariants):
    def run():
        phases = {}
        t = clock()
        X = complexes.build_abelian_nerve(2, 0, m)
        phases["build_s"] = (t, clock())
        out = {"complex": X}
        if invariants:
            t = clock()
            out["homology"] = [complexes.homology(X, q)
                               for q in range(X.top_rank + 1)]
            out["pi1"] = complexes.pi1_report(X)
            phases["invariants_s"] = (t, clock())
        t = clock()
        out["cross"] = complexes.cross_validate(X)
        phases["validate_s"] = (t, clock())
        return phases, out
    return run


def _verify_nerve(out):
    X = out["complex"]
    problems = []
    cross = out["cross"]
    if not cross["ok"]:
        first = cross["offenders"][0]
        problems.append(f"cross_validate not ok: {len(cross['offenders'])} "
                        f"offenders, first {first}")
    counts = [X.size(k) for k in range(X.top_rank + 1)]
    parts = [X.to_data()]
    if "homology" in out:
        euler = sum((-1) ** k * c for k, c in enumerate(counts))
        betti = sum((-1) ** q * h.count(0)
                    for q, h in enumerate(out["homology"]))
        if betti != euler:
            problems.append(f"homology Euler characteristic {betti} != "
                            f"alternating count sum {euler}")
        parts += [out["homology"], out["pi1"].verdict]
    return problems, _digest(parts), {"counts": counts}


# --------------------------------------------------------------------------
# the level-2 homology cover of the genus-2 surface: lifts and twists


_LIFT_DECK = 16
_LIFT_GENUS = 1 + _LIFT_DECK * (2 - 1)  # Riemann-Hurwitz, unramified


def _lift_op():
    """The seed and generator stage of build_image_complex on the level-2
    homology cover of the closed genus-2 surface."""
    spec = covers.homology_cover(2, 0, 2)
    twists = twist_automorphisms(2, 0)
    invariant = covers.invariance_check(spec, twists)
    hom = covers.cover_homology(spec, 2)
    matrices = [covers.mcg_action_on_cover(spec, t, 2) for t in twists]
    lifts = []
    for mc in catalog.multicurve_catalog(2, 0):
        E = len(mc.words)
        if E == 0:
            continue
        subs = [mc]
        if E > 1:
            subs += [complexes.delete_curves(mc, {j}) for j in range(E)]
            subs += [complexes.delete_curves(mc, set(range(E)) - {j})
                     for j in range(E)]
        lifts += [decomp.induced_from_lift(spec, s, 2) for s in subs]
    return {}, {"spec": spec, "invariant": invariant, "hom": hom,
                    "matrices": matrices, "lifts": lifts}


def _verify_lift(out):
    problems = []
    hom = out["hom"]
    deck = len(out["spec"].group.elements)
    if not out["invariant"]:
        problems.append("cover is not twist invariant")
    if deck != _LIFT_DECK:
        problems.append(f"deck order {deck} != {_LIFT_DECK}")
    if hom.space.g != _LIFT_GENUS:
        problems.append(f"cover genus {hom.space.g} != {_LIFT_GENUS}")
    if not all(hom.space.is_symplectic(M) for M in out["matrices"]):
        problems.append("a twist matrix is not symplectic")
    parts = [out["matrices"]]
    parts += (decomp.decomposition_to_data(d) for d in out["lifts"])
    counts = {"deck_order": deck, "cover_genus": hom.space.g,
              "twist_matrices": len(out["matrices"]),
              "lifts": len(out["lifts"])}
    return problems, _digest(parts), counts


# --------------------------------------------------------------------------
# genus-3 catalog and stable graphs


_GRAPHS_G3N1 = 180


def _catalog_op():
    phases = {}
    t = clock()
    cat = catalog.multicurve_catalog(3, 0)
    phases["catalog_s"] = (t, clock())
    t = clock()
    graphs = stablegraph.enumerate_stable_graphs(3, 1)
    phases["graphs_s"] = (t, clock())
    realized, missing = catalog.catalog_coverage(3, 0)
    return phases, {"catalog": cat, "graphs": graphs, "realized": realized,
                    "missing": missing}


def _nx_graph(t):
    import networkx as nx
    G = nx.MultiGraph()
    for v, (genus, marks) in enumerate(t.vertices):
        G.add_node(v, label=(genus, marks))
    G.add_edges_from(t.edges)
    return G


def _distinct_under_networkx(graphs):
    """Pairs of isomorphic graphs, by networkx as an independent oracle."""
    import networkx as nx
    buckets = {}
    for i, t in enumerate(graphs):
        G = _nx_graph(t)
        inv = (sorted((d["label"], G.degree(v))
                      for v, d in G.nodes(data=True)),
               G.number_of_edges(), nx.number_of_selfloops(G))
        buckets.setdefault(repr(inv), []).append((i, G))
    same = []
    match = lambda a, b: a["label"] == b["label"]
    for members in buckets.values():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                (i, G), (j, H) = members[a], members[b]
                if nx.is_isomorphic(G, H, node_match=match):
                    same.append((i, j))
    return same


def _verify_catalog(out):
    problems = []
    graphs = out["graphs"]
    if len(graphs) != _GRAPHS_G3N1:
        problems.append(f"{len(graphs)} stable graphs at (3,1), "
                        f"expected {_GRAPHS_G3N1}")
    same = _distinct_under_networkx(graphs)
    if same:
        problems.append(f"{len(same)} isomorphic pairs, first {same[0]}")
    if len(out["realized"]) != len(out["catalog"]):
        problems.append("catalog coverage disagrees with the catalog")
    parts = [[repr(mc.key), [list(w) for w in mc.words]]
             for mc in out["catalog"]]
    parts += [repr(t.canonical_key()) for t in graphs]
    parts += [[repr(t.canonical_key()) for t in out["missing"]]]
    counts = {"catalog": len(out["catalog"]), "graphs": len(graphs),
              "types_realized": len(out["realized"]),
              "types_wanted": len(out["realized"]) + len(out["missing"])}
    return problems, _digest(parts), counts


# --------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    """One named workload: its op, the op's output check, the signature
    whose presentation and catalog are warmed once per process, and the
    span metrics a traced run must see fire.  A `fresh` workload's op fills
    per-process caches itself (the catalog among them), so each op runs in
    a new interpreter and only the presentation is warmed."""

    name: str
    run: Callable
    verify: Callable
    signature: tuple
    fires: tuple
    fresh: bool = False

    def warm_up(self):
        presentation(*self.signature)
        if not self.fresh:
            catalog.multicurve_catalog(*self.signature)


WORKLOADS = {w.name: w for w in (
    Workload("nerve-g2-m3", _nerve_op(3, True), _verify_nerve, (2, 0),
             ("symplectic.subgroup.calls", "symplectic.apply.calls",
              "symplectic.lattice.calls", "symplectic.snf.calls",
              "symplectic.orbit.elements", "decomp.canonical_form.calls",
              "decomp.sp_action.calls", "decomp.validate.calls",
              "complexes.build.self_s", "complexes.delete_curves.calls",
              "complexes.finsimpset.self_s", "complexes.homology.self_s",
              "complexes.pi1.self_s", "complexes.cross_validate.self_s")),
    Workload("crossval-g2-m2", _nerve_op(2, False), _verify_nerve, (2, 0),
             ("symplectic.subgroup.calls", "symplectic.lattice.calls",
              "decomp.validate.calls", "complexes.cross_validate.self_s")),
    Workload("lift-g2-l2", _lift_op, _verify_lift, (2, 0),
             ("symplectic.subgroup.calls", "symplectic.matrix.calls",
              "decomp.validate.calls", "decomp.induced.calls",
              "covers.cover_homology.self_s", "covers.mcg_action.calls",
              "covers.lift.calls", "covers.invariance.self_s",
              "surface.twists.self_s", "surface.homology_class.calls",
              "complexes.delete_curves.calls")),
    Workload("catalog-g3", _catalog_op, _verify_catalog, (3, 0),
             ("catalog.multicurve_catalog.self_s", "catalog.types_realized",
              "catalog.types_wanted", "words.folded.calls",
              "words.conjugator.calls", "surface.homology_class.calls",
              "stablegraph.enumerate.self_s",
              "stablegraph.canonical_key.calls", "stablegraph.candidates",
              "stablegraph.useful_ratio"),
             fresh=True),
)}


def measure_op(workload, tracer=None):
    """Run one op, time it, then check and fingerprint its outputs.

    Times are rescaled to a fixed machine speed (speed.py); `raw_op_s` is
    the op's wall time as measured.  Untraced, the reference loop runs
    every speed.PERIOD_S during the op.  Traced, it runs only before and
    after the op, so that no span's time holds it; the tracer's per-layer
    metrics for the op are captured before the check runs, and a span the
    workload is meant to drive that did not fire counts the op as
    failed."""
    if tracer is not None:
        tracer.reset()
    sampler = Sampler()
    sampler.start(timer=tracer is None)
    t0 = clock()
    try:
        phases, out = workload.run()
        error = None
    except Exception as exc:  # a raising op is a failed op, not a crash
        error = f"raised {type(exc).__name__}: {exc}"
    t1 = clock()
    sampler.stop()
    record = {"op_s": sampler.rescaled(t0, t1), "raw_op_s": t1 - t0}
    if error:
        return dict(record, problems=[error])
    record["phases"] = {name: sampler.rescaled(*span)
                        for name, span in phases.items()}
    record["rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        * 1024 / 1e6)
    if tracer is not None:
        record["layers"] = tracer.metrics()
    problems, fingerprint, counts = workload.verify(out)
    if tracer is not None:
        problems += [f"span {name} did not fire" for name in workload.fires
                     if not record["layers"][name]]
    record.update(problems=problems, fingerprint=fingerprint, counts=counts)
    return record
