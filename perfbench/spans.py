"""Per-layer tracing from outside the package.

A Tracer wraps public levelnerve functions and methods in spans, each
named `<module>.<span>`.  A span records how often it was entered from
outside itself (`calls`) and its self time: the wrapped call's duration
minus the time covered by nested spans.  Hooks attached to a span keep
counts measured where the work happens (orbit sizes, distinct canonical
forms, accepted validations, stable-graph candidates).

Functions are wrapped at every place they are looked up: `complexes` and
`catalog` import names such as `canonical_form` or
`enumerate_stable_graphs` into their own namespace, so every levelnerve
module attribute bound to the original object is replaced, and install()
checks that no module still holds an unwrapped original.  Methods are
wrapped once on their class.  The wrapping lasts for the process.
"""

import importlib
import time
from collections import Counter

_MODULES = ("words", "symplectic", "surface", "stablegraph", "catalog",
            "covers", "decomp", "complexes")

# (span name, defining module, attribute path) — an attribute path with a
# dot names a method on a class.
SPANS = (
    ("symplectic.subgroup", "symplectic", "SympSubgroup.__init__"),
    ("symplectic.apply", "symplectic", "SympSubgroup.apply"),
    ("symplectic.lattice", "symplectic", "SympSubgroup.perp"),
    ("symplectic.lattice", "symplectic", "SympSubgroup.intersection"),
    ("symplectic.lattice", "symplectic", "SympSubgroup.add"),
    ("symplectic.lattice", "symplectic", "SympSubgroup.radical"),
    ("symplectic.matrix", "symplectic", "SympSpace.mat_mul"),
    ("symplectic.matrix", "symplectic", "SympSpace.mat_apply"),
    ("symplectic.matrix", "symplectic", "SympSpace.is_symplectic"),
    ("symplectic.snf", "symplectic", "smith_normal_form"),
    ("symplectic.orbit", "symplectic", "orbit_enumerate"),
    ("decomp.canonical_form", "decomp", "canonical_form"),
    ("decomp.sp_action", "decomp", "sp_action"),
    ("decomp.validate", "decomp", "validate"),
    ("decomp.induced", "decomp", "induced_from_multicurve"),
    ("decomp.induced", "decomp", "induced_from_lift"),
    ("covers.cover_homology", "covers", "cover_homology"),
    ("covers.mcg_action", "covers", "mcg_action_on_cover"),
    ("covers.lift", "covers", "lift_cut_graph"),
    ("covers.lift", "covers", "lift_multicurve"),
    ("covers.invariance", "covers", "invariance_check"),
    ("catalog.multicurve_catalog", "catalog", "multicurve_catalog"),
    ("catalog.coverage", "catalog", "catalog_coverage"),
    ("words.folded", "words", "FoldedGraph.__init__"),
    ("words.folded", "words", "FoldedGraph.contains"),
    ("words.conjugator", "words", "solve_conjugator"),
    ("words.conjugator", "words", "conjugate_in_free"),
    ("surface.twists", "surface", "SurfacePresentation.twists"),
    ("surface.homology_class", "surface",
     "SurfacePresentation.homology_class"),
    ("stablegraph.enumerate", "stablegraph", "enumerate_stable_graphs"),
    ("stablegraph.canonical_key", "stablegraph", "StableGraph.canonical_key"),
    ("stablegraph.candidate", "stablegraph", "StableGraph.__init__"),
    ("complexes.build", "complexes", "build_abelian_nerve"),
    ("complexes.delete_curves", "complexes", "delete_curves"),
    ("complexes.finsimpset", "complexes", "FinSimpSet.__init__"),
    ("complexes.homology", "complexes", "homology"),
    ("complexes.pi1", "complexes", "pi1_report"),
    ("complexes.cross_validate", "complexes", "cross_validate"),
)


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Spans and counters for one op; reset() starts the next op."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._stack = []
        self._canonical = set()
        self._enumerated = set()

    def reset(self):
        # cleared in place: the installed wrappers hold these objects
        for store in (self.calls, self.self_s, self.counts, self._stack,
                      self._canonical, self._enumerated):
            store.clear()

    # -- hooks: (args, kwargs, result) -> None, run after the span closed

    def _after_orbit(self, args, kwargs, res):
        self.counts["orbit.elements"] += len(res.elements)
        self.counts["orbit.new"] += len(res.elements) - 1

    def _after_canonical(self, args, kwargs, res):
        self._canonical.add(res)

    def _after_validate(self, args, kwargs, res):
        self.counts["validate.accepted"] += not res

    def _after_coverage(self, args, kwargs, res):
        realized, missing = res
        self.counts["catalog.types_realized"] = len(realized)
        self.counts["catalog.types_wanted"] = len(realized) + len(missing)

    def _after_enumerate(self, args, kwargs, res):
        key = (args, tuple(sorted(kwargs.items())))
        if key not in self._enumerated:
            self._enumerated.add(key)
            self.counts["stablegraph.types"] += len(res)

    def _count_actions(self, args):
        seed, generators, action = args[:3]

        def counted(g, x):
            self.counts["orbit.actions"] += 1
            return action(g, x)
        return (seed, generators, counted) + tuple(args[3:])

    def _wrap(self, name, fn, before=None, after=None):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter

        def span(*args, **kwargs):
            if before is not None:
                args = before(args)
            outer = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[name] += dt - frame[1]
                if outer is not None:
                    outer[1] += dt
                if outer is None or outer[0] != name:
                    calls[name] += 1
            if after is not None:
                after(args, kwargs, res)
            return res
        span.__wrapped__ = fn
        return span

    def install(self):
        """Wrap every span target; raise if an original stays reachable."""
        mods = {m: importlib.import_module(f"levelnerve.{m}")
                for m in _MODULES}
        hooks = {
            "orbit_enumerate": (self._count_actions, self._after_orbit),
            "canonical_form": (None, self._after_canonical),
            "validate": (None, self._after_validate),
            "catalog_coverage": (None, self._after_coverage),
            "enumerate_stable_graphs": (None, self._after_enumerate),
        }
        for name, modname, path in SPANS:
            owner = mods[modname]
            attr = path
            if "." in path:
                cls, attr = path.split(".")
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            before, after = hooks.get(attr, (None, None))
            wrapper = self._wrap(name, original, before, after)
            if owner is mods[modname]:
                # rebind the name in every module that imported it
                for mod in mods.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
            else:
                setattr(owner, attr, wrapper)
            for mod in mods.values():
                if any(v is original for v in vars(mod).values()):
                    raise RuntimeError(
                        f"{path} is still reachable unwrapped "
                        f"from {mod.__name__}")

    def metrics(self):
        """The per-layer metrics of the op traced since the last reset."""
        c, s, n = self.calls, self.self_s, self.counts
        out = {}
        for name in ("symplectic.subgroup", "symplectic.apply",
                     "symplectic.lattice", "symplectic.matrix",
                     "symplectic.snf", "decomp.canonical_form",
                     "decomp.sp_action", "decomp.validate", "decomp.induced",
                     "covers.mcg_action", "covers.lift", "words.folded",
                     "words.conjugator", "surface.homology_class",
                     "stablegraph.canonical_key", "complexes.delete_curves"):
            out[f"{name}.calls"] = c[name]
        for name in ("symplectic.subgroup", "symplectic.apply",
                     "symplectic.lattice", "symplectic.matrix",
                     "symplectic.snf", "symplectic.orbit",
                     "decomp.canonical_form", "decomp.sp_action",
                     "decomp.validate", "decomp.induced",
                     "covers.cover_homology", "covers.mcg_action",
                     "covers.lift", "covers.invariance",
                     "catalog.multicurve_catalog", "words.folded",
                     "words.conjugator", "surface.twists",
                     "surface.homology_class", "stablegraph.enumerate",
                     "stablegraph.canonical_key", "complexes.build",
                     "complexes.delete_curves", "complexes.finsimpset",
                     "complexes.homology", "complexes.pi1",
                     "complexes.cross_validate"):
            out[f"{name}.self_s"] = s[name]
        out["symplectic.orbit.elements"] = n["orbit.elements"]
        out["symplectic.orbit.new_ratio"] = _ratio(n["orbit.new"],
                                                   n["orbit.actions"])
        out["decomp.canonical_form.distinct_ratio"] = _ratio(
            len(self._canonical), c["decomp.canonical_form"])
        out["decomp.validate.accept_ratio"] = _ratio(
            n["validate.accepted"], c["decomp.validate"])
        out["catalog.types_realized"] = n["catalog.types_realized"]
        out["catalog.types_wanted"] = n["catalog.types_wanted"]
        out["stablegraph.candidates"] = c["stablegraph.candidate"]
        out["stablegraph.useful_ratio"] = _ratio(
            n["stablegraph.types"], c["stablegraph.candidate"])
        return out
