"""Static hygiene of the package, read with `ast` only: no unused imports in
`src/toricvanish/`, no module-level function or class there and no method of
such a class that nothing in `src/`, `tests/` or `perfbench/` refers to, and
no module with more `assert` statements than its ceiling (`python -O` strips
them, so checks move to explicit raises and the ceilings only go down), and no
module that imports another module's underscore name beyond an allow-list
that only shrinks. The one nef/ample loop, `divisors._nef_test`, the
integer wall curve of `mori` and the lattice point count of `regions` with
its integer bounds name no `Fraction`, so they stay in integers,
and no module imports `dataclasses`, which cost a third of the package's
import time: frozen value types derive from `record.Record`.
The exact simplex `lp.in_cone` and the
set difference `regions.subtract_cones` are each called only from the
functions on an allow-list that only shrinks, so they do not spread back
into a hot path or into the fan predicates.
The functions memoized with `lru_cache` or `cache` are exactly `MEMOS`.
Every function, class and method of `src/toricvanish/` is reachable from
`cli.main` or from module-level code, but for `UNREACHABLE`, an allow-list
that only shrinks: code that only the tests call does not stay in `src/`."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "toricvanish"
SCANNED = ("src", "tests", "perfbench")
# assert statements allowed per module of src/toricvanish/; any module not
# listed is allowed none. Lower a ceiling when its asserts become raises.
ASSERT_CEILING = {"corpus": 0, "fans": 0, "mori": 0}
# (importing module, defining module, name) for each underscore name one
# module of src/toricvanish/ takes from another; remove an entry when its
# import goes, and add none.
PRIVATE_IMPORTS = {
    ("lp", "linalg", "_eliminate"),
    ("lp", "linalg", "_int_row"),
}
# (module, function) for each function of src/toricvanish/ memoized with
# `lru_cache` or `cache`. Remove an entry when its memo goes; a new entry
# needs its measured hits and misses recorded in CHANGES.md, so that no memo
# hides work that a caller repeats and could do once.
MEMOS = {
    ("cohomology", "_apex_obstructions"),
    ("cohomology", "_boundary_divisors"),
    ("cohomology", "_homology_chambers"),
    ("cones", "_dual"),
    ("cones", "extreme_ray_indices"),
    ("divisors", "_cartier_data"),
    ("fans", "_common_face"),
    ("fans", "_cone_dim"),
    ("fans", "facet_incidence"),
    ("fans", "full_span"),
    ("fans", "is_complete"),
    ("fans", "support_is_convex"),
    ("mori", "_circuit"),
}
# (module, function) for each function of src/toricvanish/ that names no
# `Fraction`: the nef/ample loop and the wall curve stay in integers.
INTEGER_ONLY = {("divisors", "_nef_test"), ("mori", "wall_relation"),
                ("mori", "_circuit"), ("mori", "extremal_rays"),
                ("regions", "count_lattice_points"), ("regions", "_int_range")}
# (module, function) for each function or method of src/toricvanish/ that
# calls `lp.in_cone`; remove an entry when its call goes, and add none.
IN_CONE_CALLERS = {("cones", "extreme_ray_indices")}
# the same for `regions.subtract_cones`, a set difference with one FM call per
# piece: no fan predicate (convexity, completeness, subdivision) takes one.
SUBTRACT_CONES_CALLERS = {("fans", "check_map")}
# (module, name) for each function, class or method of src/toricvanish/ that
# no command reaches (`_unreachable`); remove an entry when it gains a caller
# or leaves src/, and add none. Each names the ROADMAP item that moves it.
UNREACHABLE = {
    # item 1 (benchmark refresh): perfbench's layer boundary names them.
    # Once it drops them, `chambers` and `polytope_dim` move into the tests,
    # and `subtract_cones` into item 4's checker with `feasible` and its
    # `_pick`, which only `subtract_cones` reaches
    ("cohomology", "chambers"),
    ("divisors", "polytope_dim"),
    ("regions", "subtract_cones"),
    ("regions", "feasible"),
    ("regions", "_pick"),
    # item 4 (certificate checker): its re-checks call them
    ("cohomology", "cech_graded"),
    ("cohomology", "graded_piece"),
    ("cohomology", "pattern_of"),
    ("fans", "check_map"),
    ("fans", "_hreps"),
    # item 8 (failure dumps): the dump writes instances through them
    ("formats", "divisor_to_obj"),
    ("formats", "fan_to_obj"),
    ("formats", "instance_to_obj"),
}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _references(nodes):
    """Identifiers the nodes refer to: names, attributes, imported names, and
    identifier-like strings (perfbench/layers.py looks functions up by name)."""
    refs = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                refs.add(node.value)
    return refs


def _bound_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_package_has_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path)
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _bound_imports(tree) if name not in loaded]
    assert not unused, "unused imports: " + ", ".join(unused)


def _definitions(body):
    """Each module-level function and class, and each method of a class that
    is not a dunder, with the nodes of its module outside it."""
    for node in body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        outside = [n for n in body if n is not node]
        yield node, outside
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item, outside + [n for n in node.body if n is not item]


def test_every_definition_is_referenced():
    elsewhere = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            elsewhere[path] = _references([_tree(path)])
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        others = set().union(*(refs for p, refs in elsewhere.items() if p != path))
        for node, outside in _definitions(_tree(path).body):
            # a self-reference (recursion) does not keep a definition alive
            if node.name not in _references(outside) and node.name not in others:
                dead.append(f"{path.name}:{node.lineno} {node.name}")
    assert not dead, "unreferenced definitions: " + ", ".join(dead)


def test_assert_count_does_not_grow():
    over = []
    for path in sorted(PACKAGE.glob("*.py")):
        count = sum(isinstance(n, ast.Assert) for n in ast.walk(_tree(path)))
        ceiling = ASSERT_CEILING.get(path.stem, 0)
        if count > ceiling:
            over.append(f"{path.name}: {count} > {ceiling}")
    assert not over, "asserts over their ceiling: " + ", ".join(over)


def _dotted(node):
    """The dotted name, such as `a.b.c`, of a chain of attributes on a name,
    else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def _private_imports(tree):
    """(module, name) for each underscore name a module's syntax tree imports
    from a sibling module: by `from .mod import _name`, or as `mod._name`
    after `from . import mod` or `import toricvanish.mod as mod`, or as
    `toricvanish.mod._name` after `import toricvanish[.mod]` (each `from`
    import in its relative or absolute form)."""
    siblings, packages, found = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] != "toricvanish":
                    continue
                if a.asname is None or a.name == "toricvanish":
                    packages.add(a.asname or "toricvanish")
                else:
                    siblings[a.asname] = a.name.split(".")[-1]
        elif not isinstance(node, ast.ImportFrom):
            continue
        elif (node.level, node.module) in ((1, None), (0, "toricvanish")):
            siblings.update((a.asname or a.name, a.name) for a in node.names)
        elif node.level == 1 or (node.module or "").startswith("toricvanish."):
            module = node.module.split(".")[-1]
            found |= {(module, a.name) for a in node.names if a.name.startswith("_")}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr.startswith("_")):
            continue
        owner = _dotted(node.value) or ""
        head, _, module = owner.partition(".")
        if owner in siblings:
            found.add((siblings[owner], node.attr))
        elif head in packages and module and "." not in module:
            found.add((module, node.attr))
    return found


def test_private_import_scan_sees_every_import_form():
    source = """
from .a import _one
from toricvanish.b import _two
from . import c
from toricvanish import d as dd
import toricvanish.e as ee
import toricvanish.f
import toricvanish as tv
c._three, dd._four, ee._five, toricvanish.f._six, tv.g._seven
c.public, ee.public, tv.h.public, other._eight
"""
    assert _private_imports(ast.parse(source)) == {
        ("a", "_one"), ("b", "_two"), ("c", "_three"), ("d", "_four"),
        ("e", "_five"), ("f", "_six"), ("g", "_seven")}


def test_no_private_name_crosses_modules_beyond_the_allow_list():
    used = {(path.stem, module, name)
            for path in sorted(PACKAGE.glob("*.py"))
            for module, name in _private_imports(_tree(path))}
    assert not used - PRIVATE_IMPORTS, \
        f"private imports: {sorted(used - PRIVATE_IMPORTS)}"
    assert not PRIVATE_IMPORTS - used, \
        f"stale allow-list entries: {sorted(PRIVATE_IMPORTS - used)}"


def _memoized(tree):
    """Names of the functions of a module's syntax tree decorated with
    `lru_cache` or `cache`: bare, called, or as a module attribute."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any((_dotted(d.func if isinstance(d, ast.Call) else d) or "")
                    .split(".")[-1] in ("lru_cache", "cache")
                    for d in node.decorator_list)}


def test_memo_scan_sees_every_decorator_form():
    source = """
@lru_cache(maxsize=8)
def a(): pass
@cache
def b(): pass
@functools.lru_cache
def c(): pass
@functools.cache
def d(): pass
@staticmethod
def e(): pass
class F:
    @lru_cache
    def g(self): pass
"""
    assert _memoized(ast.parse(source)) == {"a", "b", "c", "d", "g"}


def test_memos_are_exactly_the_listed_ones():
    found = {(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
             for name in _memoized(_tree(path))}
    assert not found - MEMOS, f"new memos: {sorted(found - MEMOS)}"
    assert not MEMOS - found, f"stale memo entries: {sorted(MEMOS - found)}"


def test_integer_only_functions_name_no_fraction():
    for module, name in sorted(INTEGER_ONLY):
        tree = _tree(PACKAGE / f"{module}.py")
        func = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == name)
        assert "Fraction" not in _references([func]), f"{module}.{name}"


def test_no_module_imports_dataclasses():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(_tree(path))
             if isinstance(node, ast.Import)
             and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
             or isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "dataclasses"]
    assert not found, "dataclasses imported at " + ", ".join(found)


def _callers(tree, module, name):
    """Names of the functions and methods of a module's syntax tree that call
    `name` of the sibling `module`: as `module.name` after `from . import
    module [as x]` or `import toricvanish.module as x`, as
    `toricvanish.module.name`, or by the name `from .module import name [as
    y]` binds."""
    full = f"toricvanish.{module}"
    modules, names = {full}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.name == full and a.asname}
        elif isinstance(node, ast.ImportFrom):
            source = (node.level, node.module)
            if source in ((1, None), (0, "toricvanish")):
                modules |= {a.asname or a.name for a in node.names if a.name == module}
            elif source in ((1, module), (0, full)):
                names |= {a.asname or a.name for a in node.names if a.name == name}
    targets = names | {f"{m}.{name}" for m in modules}
    return {node.name for node, _ in _definitions(tree.body)
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(n, ast.Call) and _dotted(n.func) in targets
                    for n in ast.walk(node))}


def test_in_cone_scan_sees_every_import_form():
    source = """
from . import lp
from toricvanish import lp as simplex
import toricvanish.lp as tl
import toricvanish.lp
from .lp import in_cone as member
def a(): return lp.in_cone(v, g)
def b(): return simplex.in_cone(v, g)
def c(): return tl.in_cone(v, g)
def d(): return toricvanish.lp.in_cone(v, g)
def e(): return [member(v, g) for g in gens]
class F:
    def g(self): return lp.in_cone(v, g)
def h(): return lp.in_cone, in_cone(v, g), other.in_cone(v, g)
"""
    assert _callers(ast.parse(source), "lp", "in_cone") == {"a", "b", "c", "d", "e", "g"}
    assert _callers(ast.parse(source), "regions", "in_cone") == set()


def _ratchet(module, name, allowed):
    used = {(path.stem, caller) for path in sorted(PACKAGE.glob("*.py"))
            for caller in _callers(_tree(path), module, name)}
    assert not used - allowed, \
        f"new {module}.{name} callers: {sorted(used - allowed)}"
    assert not allowed - used, \
        f"stale {module}.{name} callers: {sorted(allowed - used)}"


def test_simplex_callers_only_shrink():
    _ratchet("lp", "in_cone", IN_CONE_CALLERS)


def test_set_difference_callers_only_shrink():
    _ratchet("regions", "subtract_cones", SUBTRACT_CONES_CALLERS)


def _module_level(node):
    """The parts of a module-level statement that run when the module is
    imported: all of it, except a function's body and a class's methods
    (their decorators, defaults and bases run) and the names an import binds."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return []
    if isinstance(node, ast.FunctionDef):
        return node.decorator_list + node.args.defaults + \
            [d for d in node.args.kw_defaults if d is not None]
    if isinstance(node, ast.ClassDef):
        return node.decorator_list + node.bases + node.keywords + \
            [part for item in node.body for part in _module_level(item)]
    return [node]


def _unreachable(modules):
    """(module, name) of each function, class and non-dunder method of the
    modules (a dict from module name to syntax tree) that a name-based call
    graph does not reach from `main` and module-level code.

    The graph over-approximates what runs: a definition is reached when any
    reached code refers to its name (`_references`: a name, an attribute, an
    imported name or an identifier-like string), whatever module or object
    the reference meant, and a reached class reaches its dunder methods,
    which Python calls implicitly. So an unreachable definition is certainly
    run by no command, and a reachable one may still be dead.
    """
    by_name, roots = {}, [ast.Name("main")]
    for module, tree in modules.items():
        roots += [part for node in tree.body for part in _module_level(node)]
        for node, _ in _definitions(tree.body):
            by_name.setdefault(node.name, []).append((module, node))
    reached, seen, todo = set(), set(), _references(roots)
    while todo:
        name = todo.pop()
        seen.add(name)
        for module, node in by_name.get(name, ()):
            reached.add((module, node.name))
            if isinstance(node, ast.ClassDef):
                parts = [item for item in node.body if not isinstance(item, ast.FunctionDef)
                         or item.name.startswith("__")]
            else:
                parts = [node]
            todo |= _references(parts) - seen
    return {(module, node.name) for defs in by_name.values()
            for module, node in defs} - reached


def test_unreachable_scan_follows_names_from_main():
    # `helper` is reached through the dunder of the class main builds,
    # `put` by its name and `make` as a default; an import refers to nothing
    source = """
from .other import orphan
class Box(Base):
    def __init__(self): self.x = helper()
    def put(self): pass
    def spare(self): pass
def helper(): return 1
def make(): return 2
def unused(x=make()): return x
def main(): return Box().put()
def orphan(): pass
"""
    assert _unreachable({"m": ast.parse(source)}) == {
        ("m", "spare"), ("m", "unused"), ("m", "orphan")}


def test_every_definition_is_reachable_from_the_cli():
    found = _unreachable({path.stem: _tree(path) for path in sorted(PACKAGE.glob("*.py"))})
    assert not found - UNREACHABLE, f"unreachable from cli.main: {sorted(found - UNREACHABLE)}"
    assert not UNREACHABLE - found, f"stale unreachable entries: {sorted(UNREACHABLE - found)}"
