"""The runtime uses the standard library only: every absolute import in the
package names a stdlib module, and pyproject.toml declares no dependency.
Every name the package defines, private or public, is referenced by the
package or the benchmark, apart from a short list of entry points that
only tests call, and every parameter of a def is read by its body.  The
deserializers turn malformed data into typed errors, and every declared
console script names an importable module."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from levelnerve.complexes import FinSimpSet
from levelnerve.covers import (abelian_cover, cover_spec_from_data,
                               cover_spec_to_data, perm_cover)
from levelnerve.decomp import (EquivariantDecomposition, FramedDecomposition,
                               GraphDecomposition, decomposition_from_data,
                               decomposition_to_data)
from levelnerve.errors import InvalidCoverError, InvalidInputError
from levelnerve.stablegraph import StableGraph
from levelnerve.symplectic import SympSpace

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "levelnerve").glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib(path):
    outside = {name for name in absolute_imports(path)
               if name not in sys.stdlib_module_names}
    assert not outside


# The nerve path in a fresh interpreter: it loads neither the cover layer
# nor dataclasses, whose imports would double the package's start-up.
_NERVE_PATH = """\
import sys
sys.path.insert(0, sys.argv[1])
import levelnerve.complexes as C
X = C.build_abelian_nerve(1, 2, 2)
assert C.cross_validate(X)["ok"]
C.pi1_report(X)
print(sorted({"levelnerve.covers", "dataclasses"} & set(sys.modules)))
"""

# The cover side after the nerve modules: the permutation search of pi_1
# leaves covers unloaded, each call-time import of covers resolves, the
# first of them with covers not loaded yet, and loading the whole package
# still brings in no dataclasses.
_COVER_PATH = """\
import sys
sys.path.insert(0, sys.argv[1])
import levelnerve.complexes as C
import levelnerve.decomp as D
assert C._finite_quotient([1], [[1] * 5], 5) == ((1, 2, 3, 4, 0),)
assert "levelnerve.covers" not in sys.modules
from levelnerve.catalog import multicurve_catalog
from levelnerve.covers import identity_cover
assert C.build_image_complex(identity_cover(1, 1), 2).meta["counts"] == [3]
mc = next(mc for mc in multicurve_catalog(1, 1) if mc.graph.n_edges())
assert not D.validate(D.induced_from_lift(identity_cover(1, 1), mc, 2))
print("dataclasses" in sys.modules)
"""


def _fresh_interpreter(code):
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_nerve_path_loads_no_cover_layer():
    assert _fresh_interpreter(_NERVE_PATH) == "[]"


def test_cover_layer_loads_on_first_use():
    assert _fresh_interpreter(_COVER_PATH) == "False"


def test_covers_imported_only_where_a_cover_is_an_argument():
    """decomp and complexes import covers inside induced_from_lift and
    build_image_complex alone, the two functions that take a cover."""
    for name, owner in (("decomp.py", "induced_from_lift"),
                        ("complexes.py", "build_image_complex")):
        tree = ast.parse((ROOT / "src" / "levelnerve" / name).read_text())
        importers = set()
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and (
                        node.module == "covers" or (node.module is None and
                        "covers" in {alias.name for alias in node.names})):
                    importers.add(getattr(top, "name", "<module>"))
        assert importers == {owner}, name


def test_no_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


# public entry points that only the tests call: serialization and cover
# helpers, the image-complex builder, the stabilizer words that later
# builders are to read, and names the tests use as references
TEST_ONLY = {"FinSimpSet.from_data", "identity_cover", "cover_spec_to_data",
             "cover_spec_from_data", "decomposition_from_data",
             "build_image_complex", "derived_cover", "stabilizer_words",
             "leq"}


def definitions(path):
    """(qualified name, first line, last line) of every top-level def or
    class, every method and every module-level constant, dunders
    excepted."""
    def named(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            return [node.name]
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, ast.AnnAssign) else [])
        return [t.id for t in targets if isinstance(t, ast.Name)]

    for node in ast.parse(path.read_text(), str(path)).body:
        for name in named(node):
            if not name.startswith("__"):
                yield name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and \
                        not sub.name.startswith("__"):
                    yield f"{node.name}.{sub.name}", sub.lineno, sub.end_lineno


def references(path):
    """(line, name) of every name, attribute and imported name in `path`;
    in perfbench/spans.py also the last component of every string, since
    spans name their targets as dotted strings."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name
        elif path.name == "spans.py" and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            yield node.lineno, node.value.rsplit(".", 1)[-1]


def test_definitions_are_referenced():
    """A name counts as referenced when code in src/ or perfbench/ uses it
    outside its own definition; docstrings and comments do not count.  A
    method is matched by its attribute name alone, whatever the receiver,
    so a method sharing its name with any other used attribute passes.
    Private names count too, so a dead helper or a leftover constant
    fails.  A module-level private name counts only where its own module
    uses it, so a dead helper does not pass because another module defines
    and uses a helper of the same name."""
    refs = {path: list(references(path))
            for path in SOURCES + sorted((ROOT / "perfbench").glob("*.py"))}
    unreferenced = []
    for path in SOURCES:
        for name, first, last in definitions(path):
            short = name.rsplit(".", 1)[-1]
            scope = ({path: refs[path]} if name.startswith("_")
                     and "." not in name else refs)
            if not any(ref == short
                       and (other != path or not first <= line <= last)
                       for other, found in scope.items()
                       for line, ref in found):
                unreferenced.append(name)
    extra = sorted(set(unreferenced) - TEST_ONLY)
    assert not extra, f"names nothing references: {extra}"
    stale = sorted(TEST_ONLY - set(unreferenced))
    assert not stale, f"referenced now, drop from TEST_ONLY: {stale}"


# stored attributes that nothing reads: the twist's curve word is its
# public record of the curve
UNREAD_OK = {"curve_word"}


def stored_attributes(path):
    """(name, line) of every attribute stored on self, every field of a
    namedtuple("Name", "a b ...") and every name in a __slots__ tuple in
    `path`."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                          ast.Store) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            yield node.attr, node.lineno
        elif isinstance(node, ast.Call) \
                and getattr(node.func, "id", None) == "namedtuple":
            for name in ast.literal_eval(node.args[1]).split():
                yield name, node.lineno
        elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__slots__" for t in node.targets):
            for name in ast.literal_eval(node.value):
                yield name, node.lineno


def test_stored_attributes_are_read():
    """Every attribute the package stores is read somewhere in src/,
    tests/ or perfbench/, matched by attribute name alone as
    test_definitions_are_referenced matches methods, so that no data is
    kept that nothing reads."""
    read = {node.attr
            for path in SOURCES + sorted((ROOT / "tests").glob("*.py"))
            + sorted((ROOT / "perfbench").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = sorted(f"{path.name}:{line} {name}" for path in SOURCES
                    for name, line in stored_attributes(path)
                    if name not in read and name not in UNREAD_OK)
    assert not unread, f"attributes nothing reads: {unread}"
    assert not UNREAD_OK & read, "read now, drop from UNREAD_OK"


def unread_parameters(path):
    """`function.parameter` for every parameter of every def in `path`
    that its body never reads; self and cls are exempt.  A read in a
    nested def or lambda counts."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for p in params:
            if p not in read and p not in ("self", "cls"):
                yield f"{node.name}.{p}"


def test_parameters_are_read():
    unread = [name for path in SOURCES for name in unread_parameters(path)]
    assert not unread, f"parameters no body reads: {unread}"


def test_decomp_asks_lattice_questions_through_symplectic():
    """decomp reads neither the prime flag nor the rows m*e_j of a space
    and imports no echelon, kernel or Smith routine: which of the F_p and
    integer routines answers a Z/m lattice question is decided in
    symplectic alone.  decomp also neither packs rows nor memoizes
    matrices, and no module but symplectic checks that a matrix is
    symplectic or inverts it: they read the record checked_matrix
    returns."""
    tree = ast.parse((ROOT / "src" / "levelnerve" / "decomp.py").read_text())
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not read & {"prime", "_m_rows"}
    assert not imported & {"_rref_mod_p", "rref_transform", "hnf",
                           "hnf_transform", "mod_row_kernel", "snf_diagonal"}
    assert not imported & {"pack_f2", "f2_image", "lru_cache"}
    assert not read & {"f2_rows", "contains_f2"}
    for path in SOURCES:
        if path.name == "symplectic.py":
            continue
        called = {node.func.attr if isinstance(node.func, ast.Attribute)
                  else getattr(node.func, "id", None)
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Call)}
        assert not called & {"is_symplectic", "symplectic_inverse"}, \
            path.name


def test_one_tree_walk_reads_values_along_orbits():
    """Transports, simplex faces, piece potentials, deck products,
    Schreier generators and every other spanning tree (merged pieces,
    fundamental cuts, bond potentials, the 1-skeleton of pi_1, cover
    transversals) are all read along symplectic.tree_walk, whose only
    parameters are the graph, the root value and the step: no other
    module keeps a breadth-first frontier or queue of its own (the
    catalog's depth-first stack is no tree walk).  complexes reads no
    words attribute (it counts a multicurve's curves on its graph) and
    defines no word replay."""
    def functions(name):
        tree = ast.parse((ROOT / "src" / "levelnerve" / name).read_text())
        defs = {node.name: node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)}
        # methods also under their class: _Table.__init__
        defs.update({f"{cls.name}.{node.name}": node
                     for cls in ast.walk(tree)
                     if isinstance(cls, ast.ClassDef) for node in cls.body
                     if isinstance(node, ast.FunctionDef)})
        return tree, defs

    complexes_tree, complexes_defs = functions("complexes.py")
    assert "words" not in {node.attr for node in ast.walk(complexes_tree)
                           if isinstance(node, ast.Attribute)}
    assert not [name for name in complexes_defs if "replay" in name]
    _, symplectic_defs = functions("symplectic.py")
    _, covers_defs = functions("covers.py")
    _, decomp_defs = functions("decomp.py")
    _, catalog_defs = functions("catalog.py")
    walk = symplectic_defs["tree_walk"]
    assert [a.arg for a in walk.args.args] == ["moves", "root", "step"]
    for defs, name in ((symplectic_defs, "cayley_fill"),
                       (symplectic_defs, "schreier_edges"),
                       (complexes_defs, "_orbit_types"),
                       (complexes_defs, "_assemble"),
                       (complexes_defs, "_component_pi1"),
                       (covers_defs, "_piece_copy_classes"),
                       (covers_defs, "_Table.__init__"),
                       (decomp_defs, "_tree_cuts"),
                       (decomp_defs, "_bond_clause"),
                       (catalog_defs, "delete_curves")):
        called = {getattr(node.func, "id", None)
                  for node in ast.walk(defs[name])
                  if isinstance(node, ast.Call)}
        assert "tree_walk" in called, name
    for path in SOURCES:
        if path.name == "symplectic.py":
            continue
        stored = {node.id for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Store)}
        assert not stored & {"frontier", "queue"}, path.name


def private_reads(path):
    """(line, name) of every private name `path` takes from another module:
    each `from .x import _name`, and each attribute read `obj._name` of a
    name the module neither defines (as a def, class or assignment
    target) nor stores as an attribute.  Dunders are not private."""
    tree = ast.parse(path.read_text(), str(path))

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    own = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            own.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Store):
            own.add(node.attr)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if private(alias.name):
                    yield node.lineno, alias.name
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            if private(node.attr) and node.attr not in own:
                yield node.lineno, node.attr


def test_no_module_reads_another_modules_private_names():
    """A private name is read only in the module that owns it, so each
    decision (how sub-multicurves are synthesized, how a lift's piece
    copies get their classes, how model words become public words) has
    one module to change."""
    reads = sorted(f"{path.stem}:{line} {name}" for path in SOURCES
                   for line, name in private_reads(path))
    assert not reads, f"private names read across modules: {reads}"


# complexes._finite_quotient tries every tuple of permutations as images of
# the generators; ROADMAP item 19 (decide pi_1 of every nerve) replaces it
PERMUTATION_SEARCH_OK = {"complexes._finite_quotient"}


def permutation_users(path):
    """Qualified names (module.def, module.Class.method) of the defs in
    path that use itertools.permutations, by name or through the module;
    a use outside every def is charged to the module."""
    tree = ast.parse(path.read_text(), str(path))
    names = {a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "itertools"
             for a in node.names if a.name == "permutations"}
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               for a in node.names if a.name == "itertools"}
    users = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if (isinstance(child, ast.Name) and child.id in names) or (
                    isinstance(child, ast.Attribute)
                    and child.attr == "permutations"
                    and isinstance(child.value, ast.Name)
                    and child.value.id in modules):
                users.add(owner)
            visit(child, owner)

    visit(tree, path.stem)
    return users


def test_one_permutation_search():
    """stablegraph.relabelings is the package's one search over vertex
    permutations: canonical keys and canonical forms both run it, and no
    other def reaches itertools.permutations but the named exemption."""
    users = {name for path in SOURCES for name in permutation_users(path)}
    assert users == {"stablegraph.relabelings"} | PERMUTATION_SEARCH_OK


def _perm_data():
    return cover_spec_to_data(perm_cover(1, 1, 2, [(1, 0), (0, 1)]))


def _abelian_data():
    return cover_spec_to_data(abelian_cover(1, 1, (2,), [(1,), (0,)]))


def _decomp_data():
    return decomposition_to_data(GraphDecomposition(
        SympSpace(1, 2), [[(1, 0), (0, 1)]], [], []))


def _framed_data():
    return decomposition_to_data(FramedDecomposition(
        SympSpace(1, 2), [[(1, 0), (0, 1)]], [[(1, 0)]], [(0, 0)], [(1, 0)]))


def _equivariant_data():
    return decomposition_to_data(EquivariantDecomposition(
        SympSpace(1, 2), [[(1, 0), (0, 1)]], [], [], [],
        matrices=[((1, 0), (0, 1))], vperms=[(0,)], eperms=[()]))


def _complex_data():
    return FinSimpSet([[b"\x00", b"\x01"], [b"\x02"]],
                      [[(), ()], [(1, 0)]]).to_data()


def _set(path, value):
    """Mutation setting the entry at the key path to value."""
    def mutate(data):
        for k in path[:-1]:
            data = data[k]
        data[path[-1]] = value
    return mutate


COVER = (cover_spec_from_data, _perm_data)
ABELIAN = (cover_spec_from_data, _abelian_data)
DECOMP = (decomposition_from_data, _decomp_data)
FRAMED = (decomposition_from_data, _framed_data)
EQUIVARIANT = (decomposition_from_data, _equivariant_data)
COMPLEX = (FinSimpSet.from_data, _complex_data)

# (reader and base data, mutation, error, whether the error wraps a raw
# KeyError, TypeError or ValueError of the reader)
MALFORMED = {
    "cover-genus": (COVER, _set(("base", "g"), "x"), InvalidInputError, False),
    "cover-genus-float": (COVER, _set(("base", "g"), 1.5),
                          InvalidInputError, False),
    "cover-genus-bool": (COVER, _set(("base", "g"), True),
                         InvalidInputError, False),
    "cover-degree-float": (COVER, _set(("group", "degree"), 2.9),
                           InvalidInputError, False),
    "cover-image": (COVER, _set(("images", "a1"), "ab"),
                    InvalidInputError, False),
    "cover-moduli": (ABELIAN, _set(("group", "moduli"), 5),
                     InvalidInputError, True),
    "cover-modulus-float": (ABELIAN, _set(("group", "moduli"), [2.5]),
                            InvalidInputError, False),
    "cover-entry-float": (ABELIAN, _set(("images", "a1"), [1.7]),
                          InvalidInputError, False),
    "cover-kind": (COVER, _set(("group", "kind"), "matrix"),
                   InvalidInputError, False),
    "cover-u1": (COVER, _set(("images", "u1"), [1, 0]),
                 InvalidCoverError, False),
    "decomp-vertices": (DECOMP, _set(("vertices",), "x"),
                        InvalidInputError, False),
    "decomp-vertices-float": (DECOMP, _set(("vertices",), 1.5),
                              InvalidInputError, False),
    "decomp-modulus-float": (DECOMP, _set(("space", "modulus"), 3.7),
                             InvalidInputError, False),
    "decomp-genus-bool": (DECOMP, _set(("space", "genus"), True),
                          InvalidInputError, False),
    "decomp-n-float": (DECOMP, _set(("n",), 3.5), InvalidInputError, False),
    "decomp-entry": (DECOMP, _set(("vertex_groups", 0, 0, 0), "a"),
                     InvalidInputError, False),
    "decomp-entry-float": (DECOMP, _set(("vertex_groups", 0, 0, 0), 1.7),
                           InvalidInputError, False),
    "decomp-edge-float": (FRAMED, _set(("edges", 0), [0, 0.5]),
                          InvalidInputError, False),
    "decomp-frame-float": (FRAMED, _set(("frames", 0), [1.5, 0]),
                           InvalidInputError, False),
    "decomp-matrix-float": (EQUIVARIANT,
                            _set(("action", "matrices", 0, 0, 0), 1.5),
                            InvalidInputError, False),
    "decomp-vperm-float": (EQUIVARIANT, _set(("action", "vertex", 0), [0.0]),
                           InvalidInputError, False),
    "decomp-group-count": (DECOMP, _set(("vertices",), 2),
                           InvalidInputError, False),
    "complex-hex": (COMPLEX, _set(("ranks", 1, "simplices", 0), "zz"),
                    InvalidInputError, True),
    "complex-faces": (COMPLEX, lambda data: data["ranks"][1].pop("faces"),
                      InvalidInputError, True),
    "complex-ranks": (COMPLEX, _set(("ranks",), 5), InvalidInputError, True),
    "complex-face-range": (COMPLEX, _set(("ranks", 1, "faces", 0), [2, 0]),
                           InvalidInputError, False),
    "complex-face-float": (COMPLEX,
                           _set(("ranks", 1, "faces", 0), [1.5, 0.5]),
                           InvalidInputError, False),
}


@pytest.mark.parametrize("case", list(MALFORMED.values()),
                         ids=list(MALFORMED))
def test_deserializers_raise_typed_errors(case):
    """Malformed data raises the package's own InvalidInputError from each
    reader; an error the reader already typed passes through unchanged."""
    (read, base), mutate, error, wrapped = case
    data = base()
    read(data)
    mutate(data)
    with pytest.raises(error) as info:
        read(data)
    assert type(info.value) is error
    raw = (KeyError, TypeError, ValueError)
    assert isinstance(info.value.__cause__, raw) is wrapped


NON_INT = {
    "abelian-modulus": lambda: abelian_cover(1, 1, (2.5,), [(1,), (0,)]),
    "abelian-entry": lambda: abelian_cover(1, 1, (2,), [(1.7,), (0,)]),
    "abelian-genus": lambda: abelian_cover(True, 1, (2,), [(1,), (0,)]),
    "perm-degree": lambda: perm_cover(1, 1, 2.9, [(1, 0), (0, 1)]),
    "perm-entry": lambda: perm_cover(1, 1, 2, [(1.0, 0), (0, 1)]),
    "perm-punctures": lambda: perm_cover(1, 1.0, 2, [(1, 0), (0, 1)]),
    "decomp-n": lambda: GraphDecomposition(
        SympSpace(1, 2), [[(1, 0), (0, 1)]], [], [], n=3.5),
    "decomp-mark": lambda: GraphDecomposition(
        SympSpace(1, 2), [[(1, 0), (0, 1)]], [], [], [(1.0,)], n=1),
    "decomp-edge": lambda: GraphDecomposition(
        SympSpace(1, 2), [[(1, 0)], [(0, 1)]], [[]], [(0, 1.9)]),
    "decomp-row": lambda: GraphDecomposition(
        SympSpace(1, 2), [[(1.2, 0)]], [], []),
    "framed-frame": lambda: FramedDecomposition(
        SympSpace(1, 2), [[(1, 0), (0, 1)]], [[(1, 0)]], [(0, 0)],
        [(1.9, 0.0)]),
    "equivariant-perm": lambda: EquivariantDecomposition(
        SympSpace(1, 2), [[(1, 0)], [(0, 1)]], [[]], [(0, 1)], [(0, 0)],
        matrices=[((1, 0), (0, 1))] * 2, vperms=[(0, 1), (0.0, 1.0)],
        eperms=[(0,)] * 2),
    "stable-genus": lambda: StableGraph([(1.5, ())], []),
    "stable-mark": lambda: StableGraph([(1, (1.0,))], []),
    "stable-endpoint": lambda: StableGraph([(1, ()), (1, ())], [(0, 1.0)]),
    "stable-edge-length": lambda: StableGraph([(1, ())], [(0, 0, 0)]),
    "stable-vertex-length": lambda: StableGraph([(1, (), 5)], []),
    "stable-edge-int": lambda: StableGraph([(1, ())], [0]),
    "decomp-edge-length": lambda: GraphDecomposition(
        SympSpace(1, 2), [[(1, 0), (0, 1)]], [[]], [(0,)]),
    "subgroup-str": lambda: SympSpace(1, 2).subgroup([["1", 0]]),
    "subgroup-float": lambda: SympSpace(1, 2).subgroup([[1.5, 0]]),
    "subgroup-bool": lambda: SympSpace(1, 2).subgroup([[True, 0]]),
    "subgroup-list": lambda: SympSpace(1, 2).subgroup([[[1], 0]]),
}


@pytest.mark.parametrize("make", list(NON_INT.values()), ids=list(NON_INT))
def test_constructors_refuse_non_int_scalars(make):
    """A float or bool where a cover, decomposition or subgroup wants an
    int is refused, not truncated, and so is a vertex or an edge of the
    wrong shape."""
    with pytest.raises(InvalidInputError):
        make()


@pytest.mark.xfail(raises=ModuleNotFoundError, strict=True,
                   reason="levelnerve.cli is ROADMAP item 2, not written yet")
def test_console_scripts_import():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
