"""Library layout: every function in `src/facelab` has a caller in the library.

Reference checks belong in `tests/oracles.py`, not in the library.  This
walks the AST of each library module and requires every module-level
function and every public method to be referenced somewhere in
`src/facelab` outside its own definition.  A reference is an identifier in
code: a name, an attribute or an imported name.  Comments and docstrings do
not count.  Dunder methods are exempt: the interpreter calls them.  So are the
entry points in USER_API, which only users call; each must be named in the
README.  So are the views in HARNESS_API, which only the benchmark in
`perfbench/` reads; each must be referenced there and nowhere in the
library.  Every attribute a library class assigns as `self.<name>`, or
writes as a key of `self.__dict__`, must likewise be read as `.<name>`
somewhere in `src/facelab`.  A polytope owns its face lattice, so no library
function takes a `VPolytope` and a `FaceLattice` side by side, and a lattice
is constructed only by its two producers, `face_lattice` and `section`.
The checked records share one `_make`, on their base `CheckedRecord`.
"""

import ast
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "facelab"
HARNESS = ROOT / "perfbench"
# The reader of the packaged JSON schemas that describe the CLI output.
USER_API = {"load_schema"}
# Views that only perfbench/ reads: the ids checks.py re-checks CLI output
# with, and the slice lattice trace_entry.py counts for its section span.
HARNESS_API = {"hyperedges", "face_of_set", "slice_lattice"}


def definitions(tree: ast.Module):
    """(name, first line, last line) of each module-level function and each
    public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        yield item.name, item.lineno, item.end_lineno


def references(tree: ast.Module):
    """(identifier, line) of each name, attribute and imported name in the
    module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno


def parsed(folder: Path) -> dict[Path, ast.Module]:
    """The syntax tree of each Python file under the folder."""
    return {
        path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(folder.rglob("*.py"))
    }


def referenced_names(folder: Path) -> set[str]:
    return {name for tree in parsed(folder).values() for name, _ in references(tree)}


def test_library_has_no_test_only_functions():
    trees = parsed(LIBRARY)
    sites: dict[str, list[tuple[Path, int]]] = {}
    for source, tree in trees.items():
        for name, line in references(tree):
            sites.setdefault(name, []).append((source, line))
    unreferenced = []
    for path, tree in trees.items():
        for name, first, last in definitions(tree):
            if name.startswith("__") and name.endswith("__") or name in USER_API | HARNESS_API:
                continue
            used = any(
                not (source == path and first <= line <= last)
                for source, line in sites.get(name, ())
            )
            if not used:
                unreferenced.append(f"{path.relative_to(ROOT)}:{first} {name}")
    assert unreferenced == [], "library functions only tests call: " + ", ".join(unreferenced)


def test_user_api_is_documented():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert [name for name in sorted(USER_API) if f"`{name}" not in readme] == []


def test_harness_api_is_read_by_the_harness_alone():
    assert HARNESS_API <= referenced_names(HARNESS)
    assert HARNESS_API & referenced_names(LIBRARY) == set()


def annotation_names(annotation: ast.expr) -> set[str]:
    """The names an annotation mentions, as names, attributes or inside
    quotes."""
    names = set()
    for part in ast.walk(annotation):
        if isinstance(part, ast.Name):
            names.add(part.id)
        elif isinstance(part, ast.Attribute):
            names.add(part.attr)
        elif isinstance(part, ast.Constant) and isinstance(part.value, str):
            names |= annotation_names(ast.parse(part.value, mode="eval").body)
    return names


def annotated_parameters(tree: ast.Module):
    """(function name, line, names its parameter annotations mention) of
    every function and method in the module, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            names = set()
            for param in params:
                if param is not None and param.annotation is not None:
                    names |= annotation_names(param.annotation)
            yield node.name, node.lineno, names


def test_annotated_parameters_sees_quotes_unions_and_attributes():
    tree = ast.parse(
        "def f(p: 'VPolytope', *, lat: 'FaceLattice | None' = None) -> FaceLattice: pass\n"
        "class A:\n"
        "    def g(self, p: polytope.VPolytope, k: int): pass\n"
    )
    assert [(name, names) for name, _, names in annotated_parameters(tree)] == [
        ("f", {"VPolytope", "FaceLattice"}),
        ("g", {"polytope", "VPolytope", "int"}),
    ]


def test_no_library_function_takes_a_polytope_and_a_lattice():
    paired = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path, tree in parsed(LIBRARY).items()
        for name, line, names in annotated_parameters(tree)
        if {"VPolytope", "FaceLattice"} <= names
    ]
    assert paired == [], "read the lattice off the polytope instead: " + ", ".join(paired)


def call_sites(tree: ast.Module, callee: str):
    """The enclosing module-level function or `Class.method` (`Class.` in a
    class body, `<module>` elsewhere) of each call to the name `callee` in
    the module."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            scopes = [(f"{node.name}.{getattr(item, 'name', '')}", item) for item in node.body]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes = [(node.name, node)]
        else:
            scopes = [("<module>", node)]
        for scope, body in scopes:
            for sub in ast.walk(body):
                if isinstance(sub, ast.Call):
                    func = sub.func
                    if getattr(func, "attr", getattr(func, "id", None)) == callee:
                        yield scope


def test_call_sites_sees_methods_lambdas_and_attributes():
    tree = ast.parse(
        "x = polytope.FaceLattice(0, 1, f)\n"
        "def make(masks):\n"
        "    return (lambda: FaceLattice(1, 2, masks.get))()\n"
        "class A:\n"
        "    def build(self): return FaceLattice\n"
        "    def other(self): self.FaceLattice(2, 3, g)\n"
    )
    assert list(call_sites(tree, "FaceLattice")) == ["<module>", "make", "A.other"]


def test_face_lattice_has_two_producers():
    """A lattice is built in exactly two places, one per cover rule: the
    facet sweep in `face_lattice` and the restriction in `section`."""
    sites = [
        f"{path.relative_to(LIBRARY).as_posix()} {scope}"
        for path, tree in parsed(LIBRARY).items()
        for scope in call_sites(tree, "FaceLattice")
    ]
    assert sites == ["polytope.py face_lattice", "section.py section"]


def test_checked_records_share_one_make():
    """`_replace` builds through `_make`, so the records whose constructor
    checks their fields route it back through the checks.  That rule is
    written once, on `geometry.CheckedRecord`, and each checked record lists
    that base."""
    makes, owners, bases = 0, [], {}
    for path, tree in parsed(LIBRARY).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_make":
                makes += 1
            elif isinstance(node, ast.ClassDef):
                bases[node.name] = [getattr(b, "id", None) for b in node.bases]
                if any(getattr(item, "name", None) == "_make" for item in node.body):
                    owners.append(f"{path.relative_to(LIBRARY).as_posix()} {node.name}")
    assert (makes, owners) == (1, ["geometry.py CheckedRecord"])
    for record in ("Hyperplane", "BlockedSet", "GeneratorSpec"):
        assert "CheckedRecord" in bases[record], record


def is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def is_self_dict(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "__dict__" and is_self(node.value)


def assigned_attributes(tree: ast.Module):
    """(class, attribute, line) of each attribute a module-level class writes:
    `self.<name> = ...`, and keys written through `self.__dict__`, as
    `self.__dict__["<name>"] = ...` or `self.__dict__.update(<name>=...)`."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
                    if is_self(sub.value):
                        yield node.name, sub.attr, sub.lineno
                elif isinstance(sub, ast.Subscript) and isinstance(sub.ctx, ast.Store):
                    key = sub.slice
                    if is_self_dict(sub.value) and isinstance(key, ast.Constant):
                        yield node.name, key.value, sub.lineno
                elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                    if sub.func.attr == "update" and is_self_dict(sub.func.value):
                        for keyword in sub.keywords:
                            if keyword.arg is not None:
                                yield node.name, keyword.arg, sub.lineno


def test_assigned_attributes_sees_instance_dict_writes():
    tree = ast.parse(
        "class A:\n"
        "    def __init__(self):\n"
        "        self.plain = 1\n"
        "        self.__dict__['stored'] = 2\n"
        "        self.__dict__.update(updated=3, **{})\n"
        "        other.__dict__['elsewhere'] = 4\n"
    )
    assert {name for _, name, _ in assigned_attributes(tree)} == {"plain", "stored", "updated"}
    polytope = ast.parse((LIBRARY / "polytope.py").read_text(encoding="utf-8"))
    written = {name for cls, name, _ in assigned_attributes(polytope) if cls == "VPolytope"}
    assert written == {"rows", "ambient_dim"}


def test_library_has_no_write_only_attributes():
    read = set()
    assigned = []
    for path, tree in parsed(LIBRARY).items():
        read |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
        assigned += [(path, *entry) for entry in assigned_attributes(tree)]
    unread = [
        f"{path.relative_to(ROOT)}:{line} {cls}.{name}"
        for path, cls, name, line in assigned
        if name not in read
    ]
    assert unread == [], "attributes only tests read: " + ", ".join(unread)


def library_importers(*modules: str) -> list[str]:
    """The library files, one entry per import statement, that import any of
    the given top-level modules."""
    importers = []
    for path in sorted(LIBRARY.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in modules for name in names):
                importers.append(path.relative_to(LIBRARY).as_posix())
    return importers


def test_no_library_module_imports_fractions():
    """Rationals meet the integer rows as integer pairs, so neither `fractions`
    nor the `decimal` it loads is imported by the library."""
    assert library_importers("fractions", "decimal") == []


def test_only_generators_import_random():
    """Every construction is deterministic; only the seeded `random` family
    draws numbers."""
    assert library_importers("random") == ["generators.py"]


def test_only_geometry_imports_operator_mul():
    """The exact dot product has one owner, `geometry.dot`: no other library
    module takes `operator.mul` to build its own."""
    importers = []
    for path in sorted(LIBRARY.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "operator":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "operator":
                names = [node.attr]
            else:
                continue
            if "mul" in names:
                importers.append(path.relative_to(LIBRARY).as_posix())
    assert importers == ["geometry.py"]


def fractions_held(value, seen: set[int]) -> list[str]:
    """Every Fraction reachable from value through containers, instance
    dictionaries and slots."""
    if isinstance(value, Fraction):
        return [repr(value)]
    if isinstance(value, (bool, int, str, type(None))) or id(value) in seen:
        return []
    seen.add(id(value))
    if isinstance(value, dict):
        items = [*value.keys(), *value.values()]
    elif isinstance(value, (tuple, list, set, frozenset)):
        items = list(value)
    else:
        items = list(getattr(value, "__dict__", {}).values())
        for cls in type(value).__mro__:
            slots = getattr(cls, "__slots__", ())
            for slot in (slots,) if isinstance(slots, str) else slots:
                if hasattr(value, slot):
                    items.append(getattr(value, slot))
    return [found for item in items for found in fractions_held(item, seen)]


def test_points_planes_and_polytopes_hold_no_fractions():
    from facelab.geometry import Hyperplane, QVector, parse_rational
    from facelab.polytope import facets, parse_polytope, polar_dual
    from facelab.section import section

    # A pyramid over the unit square with its apex at (1/2, 1/2, 3/4).
    p = parse_polytope("polytope 3 5\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n1/2 1/2 3/4\n")
    planes = [h for _, h in facets(p)]
    slice_map = section(p, Hyperplane.of([0, 0, 1], Fraction(1, 3)))
    dual = polar_dual(p)
    dual.lattice
    assert {"facet_rows", "_cone", "lattice"} <= vars(p).keys()
    assert "lattice" in vars(slice_map.slice_polytope)
    held = [
        QVector.of([parse_rational("1/2"), -3]),
        Hyperplane.of([Fraction(1, 2), 1], Fraction(1, 3)),
        *planes,
        p,
        dual,
        slice_map.slice_polytope,
    ]
    assert fractions_held(held, set()) == []
