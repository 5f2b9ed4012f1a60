"""Static hygiene of the package source.

Every name a module of ``derived_brackets`` imports must be referenced in
that module: a refactor that moves code between modules otherwise leaves
stale imports behind.  ``__init__.py`` is skipped, because its imports are
the package's re-exported API (``__all__`` is built from them).  Likewise
every top-level function and class of the package must be referenced outside
its own definition, in the package, the tests or the demos, and every method
of a package class must be read as an attribute outside its own body, so that
helpers whose last caller has gone are deleted with it.

Each directory is parsed once per test run and each tree walked once: the
scans read the nodes of the kinds they need from ``_index``, which records
every node with its enclosing definitions.  Neither is ever written, so no
scan can change what another sees.
"""

import ast
import functools
import os
import types

import derived_brackets

PACKAGE_DIR = os.path.dirname(os.path.abspath(derived_brackets.__file__))
TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS_DIR)

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


@functools.cache
def _parsed(directory: str) -> types.MappingProxyType:
    """``dir/file.py`` -> tree of each module of the directory, read-only."""
    out = {}
    for filename in sorted(f for f in os.listdir(directory) if f.endswith(".py")):
        path = os.path.join(directory, filename)
        with open(path, encoding="utf-8") as fh:
            out[os.path.relpath(path, os.path.dirname(directory))] = ast.parse(fh.read(), path)
    return types.MappingProxyType(out)


@functools.cache
def _index(tree: ast.Module) -> types.MappingProxyType:
    """Node type -> (node, top, functions, scope) for every node below the
    module, in depth-first preorder: ``top`` names the enclosing top-level
    function or class (None outside one), ``functions`` is the tuple of the
    enclosing function definitions, outermost first, and ``scope`` is the
    innermost enclosing function or class definition (None at module
    level).  The one walk of the tree that every scan shares."""
    out: dict[type, list] = {}
    stack = [(top, top.name if isinstance(top, _DEFS) else None, (), None)
             for top in reversed(tree.body)]
    while stack:
        record = stack.pop()
        node, top, functions, scope = record
        out.setdefault(type(node), []).append(record)
        if isinstance(node, _DEFS):
            scope = node
            if isinstance(node, _FUNCTIONS):
                functions += (node,)
        stack.extend((child, top, functions, scope)
                     for child in reversed(list(ast.iter_child_nodes(node))))
    return types.MappingProxyType({kind: tuple(nodes) for kind, nodes in out.items()})


def _nodes(tree: ast.Module, *kinds: type) -> list:
    """The index records of the nodes of the given types, type by type."""
    index = _index(tree)
    return [record for kind in kinds for record in index.get(kind, ())]


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module, ``__future__`` aside."""
    names = {}
    for node, *_ in _nodes(tree, ast.Import):
        for alias in node.names:
            names[alias.asname or alias.name.split(".")[0]] = node.lineno
    for node, *_ in _nodes(tree, ast.ImportFrom):
        if node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node, *_ in _nodes(tree, *_FUNCTIONS):
        if node.returns:
            yield node.returns
    for node, *_ in _nodes(tree, ast.arg):
        if node.annotation:
            yield node.annotation
    for node, *_ in _nodes(tree, ast.AnnAssign):
        yield node.annotation


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside quoted annotations."""
    used = {node.id for node, *_ in _nodes(tree, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def test_no_unused_imports():
    package = _parsed(PACKAGE_DIR)
    assert "derived_brackets/graded.py" in package and "derived_brackets/qgeom.py" in package
    unused = []
    for module, tree in package.items():
        if module.endswith("__init__.py"):
            continue
        used = _referenced_names(tree)
        for name, line in sorted(_imported_names(tree).items()):
            if name not in used:
                unused.append(f"{module}:{line}: {name}")
    assert unused == []


_TERMS_MUTATORS = {"update", "pop", "popitem", "setdefault", "clear"}


def _is_terms(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "terms"


def _terms_writes(tree: ast.Module):
    """(line, what) for every write to a ``.terms`` attribute or into the
    dict it holds, outside ``__init__`` and ``_of``."""
    kinds = (ast.Assign, ast.Delete, ast.AugAssign, ast.AnnAssign, ast.Call)
    out = []
    for node, _, functions, _ in _nodes(tree, *kinds):
        if functions and functions[-1].name in ("__init__", "_of"):
            continue
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
            elif _is_terms(target) or (
                isinstance(target, ast.Subscript) and _is_terms(target.value)
            ):
                out.append((node.lineno, "assignment"))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _TERMS_MUTATORS
            and _is_terms(node.func.value)
        ):
            out.append((node.lineno, f".terms.{node.func.attr}()"))
    return sorted(out)


def test_elements_are_never_mutated():
    # an element's integer form (gla.integer_form) is kept beside its terms,
    # so the terms of a built element must never change
    offenders = []
    for module, tree in _parsed(PACKAGE_DIR).items():
        offenders += [f"{module}:{line}: {what}" for line, what in _terms_writes(tree)]
    assert offenders == []


def test_the_terms_scan_sees_each_kind_of_write():
    source = (
        "def f(x, y):\n"
        "    x.terms = {}\n"
        "    x.terms['a'] = 1\n"
        "    x.terms.update(y)\n"
        "    x.terms.pop('a')\n"
        "    x.terms.setdefault('a', 1)\n"
        "    x.terms.clear()\n"
        "    del x.terms['a']\n"
        "    y, x.terms = x.terms.get('a'), {}\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self.terms = {}\n"
        "    def _of(cls, terms):\n"
        "        new.terms = terms\n"
    )
    found = _terms_writes(ast.parse(source))
    assert [line for line, _ in found] == [2, 3, 4, 5, 6, 7, 8, 9]


# -- every top-level definition is used ----------------------------------------------------


def _top_level_defs(tree: ast.Module) -> dict[str, int]:
    return {node.name: node.lineno for node in tree.body if isinstance(node, _DEFS)}


def _references(tree: ast.Module) -> set[tuple[str | None, str]]:
    """(enclosing top-level definition or None, name) for every name the
    module uses: loaded names, attributes, imported names and identifier
    strings (quoted annotations, ``monkeypatch.setattr(module, "name", ..)``)."""
    out = {(owner, node.id) for node, owner, *_ in _nodes(tree, ast.Name)}
    out.update((owner, node.attr) for node, owner, *_ in _nodes(tree, ast.Attribute))
    out.update(
        (owner, node.name.rsplit(".", 1)[-1]) for node, owner, *_ in _nodes(tree, ast.alias)
    )
    out.update(
        (owner, node.value) for node, owner, *_ in _nodes(tree, ast.Constant)
        if isinstance(node.value, str) and node.value.isidentifier()
    )
    return out


def _unreferenced(package: dict[str, ast.Module], others: dict[str, ast.Module]) -> list[str]:
    """``file:line: name`` of each top-level function or class of a package
    module that nothing references outside its own definition.  A file that
    defines the same name itself (a test-only copy, say) refers to its own."""
    files = {**package, **others}
    defs = {f: _top_level_defs(tree) for f, tree in files.items()}
    refs = {f: _references(tree) for f, tree in files.items()}
    names = {f: {used for _, used in pairs} for f, pairs in refs.items()}
    missing = []
    for module in package:
        for name, line in sorted(defs[module].items(), key=lambda item: item[1]):
            inside = any(used == name and owner != name for owner, used in refs[module])
            outside = any(
                name in names[f] and name not in defs[f] for f in files if f != module
            )
            if not (inside or outside):
                missing.append(f"{module}:{line}: {name}")
    return missing


def test_every_top_level_definition_is_referenced():
    package = _parsed(PACKAGE_DIR)
    others = {**_parsed(TESTS_DIR), **_parsed(os.path.join(ROOT, "demos"))}
    assert "derived_brackets/polygeo.py" in package and "demos/04_coisotropic.py" in others
    assert _unreferenced(package, others) == []


def test_the_reference_scan_flags_stale_definitions():
    package = {"pkg/mod.py": ast.parse(
        "def used():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def copied():\n    return 2\n"
        "def patched():\n    return 3\n"
        "class Annotated:\n    pass\n"
        "def user(x: 'Annotated'):\n    return used()\n"
    )}
    others = {"tests/test_mod.py": ast.parse(
        "from pkg.mod import user\n"
        "def copied():\n    return 2\n"
        "def test_it(monkeypatch):\n"
        "    monkeypatch.setattr(mod, 'patched', None)\n"
        "    assert copied() == 2 and user(1) == 1\n"
    )}
    assert _unreferenced(package, others) == ["pkg/mod.py:3: recursive", "pkg/mod.py:5: copied"]


# -- every method is read -----------------------------------------------------------------


def _unread_methods(package: dict[str, ast.Module], others: dict[str, ast.Module]) -> list[str]:
    """``file:line: Class.method`` of each non-dunder method of a class of a
    package module that no file reads as ``.method`` outside the method's
    own body (so a method that only calls itself is unread)."""
    read: dict[str, list[tuple]] = {}  # name -> the defs enclosing each read
    for tree in (*package.values(), *others.values()):
        for node, _, functions, _ in _nodes(tree, ast.Attribute):
            if isinstance(node.ctx, ast.Load):
                read.setdefault(node.attr, []).append(functions)
    unread = []
    for module, tree in package.items():
        for cls, *_ in _nodes(tree, ast.ClassDef):
            for method in cls.body:
                if not isinstance(method, _FUNCTIONS):
                    continue
                name = method.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if all(method in functions for functions in read.get(name, ())):
                    unread.append(f"{module}:{method.lineno}: {cls.name}.{name}")
    return unread


def test_every_method_is_read():
    package = _parsed(PACKAGE_DIR)
    others = {
        **_parsed(TESTS_DIR),
        **_parsed(os.path.join(ROOT, "demos")),
        **_parsed(os.path.join(ROOT, "perfbench")),
    }
    assert "derived_brackets/graded.py" in package and "perfbench/workloads.py" in others
    assert _unread_methods(package, others) == []


def test_the_method_scan_flags_unread_methods():
    package = {"pkg/mod.py": ast.parse(
        "class A:\n"
        "    def __init__(self):\n        self.x = 1\n"
        "    def used(self):\n        return self.helper()\n"
        "    def helper(self):\n        return 1\n"
        "    def recursive(self, n):\n        return self.recursive(n - 1)\n"
        "    def elsewhere(self):\n        return 2\n"
        "    @property\n"
        "    def prop(self):\n        return 3\n"
        "    def written(self):\n        return 4\n"
        "def make(a):\n"
        "    a.written = 5\n"
        "    return a.used(), a.prop\n"
    )}
    others = {"tests/test_mod.py": ast.parse(
        "def test_it(a):\n    assert a.elsewhere() == 2\n"
    )}
    assert _unread_methods(package, others) == [
        "pkg/mod.py:8: A.recursive", "pkg/mod.py:15: A.written",
    ]


# -- every dataclass field is read ---------------------------------------------------------


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _unread_fields(package: dict[str, ast.Module], others: dict[str, ast.Module]) -> list[str]:
    """``file:line: Class.field`` of each field of a dataclass of a package
    module that no file reads as an attribute: a field that is only written,
    by the constructor or ``dataclasses.replace``, carries nothing."""
    read = {
        node.attr
        for tree in (*package.values(), *others.values())
        for node, *_ in _nodes(tree, ast.Attribute)
        if isinstance(node.ctx, ast.Load)
    }
    unread = []
    for module, tree in package.items():
        for node, *_ in _nodes(tree, ast.ClassDef):
            if _is_dataclass(node):
                unread += [
                    f"{module}:{field.lineno}: {node.name}.{field.target.id}"
                    for field in node.body
                    if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
                    and field.target.id not in read
                ]
    return unread


def test_every_dataclass_field_is_read():
    package = _parsed(PACKAGE_DIR)
    others = {**_parsed(TESTS_DIR), **_parsed(os.path.join(ROOT, "demos"))}
    assert "derived_brackets/tpois.py" in package and "tests/test_graph_transform.py" in others
    assert _unread_fields(package, others) == []


def test_the_field_scan_flags_unread_fields():
    package = {"pkg/mod.py": ast.parse(
        "from dataclasses import dataclass, replace\n"
        "@dataclass(frozen=True)\n"
        "class Frozen:\n    read: int\n    built: int\n    replaced: int\n"
        "@dataclass\n"
        "class Plain:\n    written: int\n    def total(self):\n        return self.used\n"
        "    used: int = 0\n"
        "class NotData:\n    ignored: int\n"
        "def make(p):\n"
        "    p.written = 1\n"
        "    return replace(Frozen(read=1, built=2, replaced=3), replaced=4)\n"
    )}
    others = {"tests/test_mod.py": ast.parse(
        "def test_it(f):\n    assert f.read == 1\n"
    )}
    assert _unread_fields(package, others) == [
        "pkg/mod.py:5: Frozen.built", "pkg/mod.py:6: Frozen.replaced",
        "pkg/mod.py:9: Plain.written",
    ]


# -- every defaulted parameter is set somewhere --------------------------------------------


def _defaulted_parameters(package: dict[str, ast.Module]):
    """(file, line, callee name, position or None, parameter) for each
    parameter with a default of a function or method in the package.  A
    method is called as ``obj.name`` with its first parameter bound, and an
    ``__init__`` through its class name; a keyword-only parameter has no
    position."""
    for module, tree in package.items():
        functions = sorted(_nodes(tree, *_FUNCTIONS), key=lambda record: record[0].lineno)
        for node, _, _, scope in functions:
            owner = scope.name if isinstance(scope, ast.ClassDef) else None
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
            )
            bound = 1 if owner is not None and not static else 0
            name = owner if node.name == "__init__" else node.name
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for index, arg in enumerate(positional[first:], first):
                yield module, arg.lineno, name, index - bound, arg.arg
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield module, arg.lineno, name, None, arg.arg


def _unset_defaults(package: dict[str, ast.Module], others: dict[str, ast.Module]) -> list[str]:
    """``file:line: function.parameter`` of each defaulted parameter that no
    call in any file passes, by position or by keyword.  Calls are matched by
    the callee's name; a call with ``*args`` passes every position and one
    with ``**kwargs`` every keyword, and a function referenced as a value
    (passed on, stored) counts as passing everything."""
    positions: dict[str, int] = {}
    keywords: dict[str, set] = {}
    as_value: set[str] = set()
    for tree in (*package.values(), *others.values()):
        callees = set()
        for node, *_ in _nodes(tree, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            callees.add(id(func))
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            count = 2**30 if starred else len(node.args)
            positions[name] = max(positions.get(name, 0), count)
            for kw in node.keywords:
                keywords.setdefault(name, set()).add(kw.arg)  # None: **kwargs
        for node, *_ in _nodes(tree, ast.Name, ast.Attribute):
            if id(node) in callees or not isinstance(node.ctx, ast.Load):
                continue
            as_value.add(node.id if isinstance(node, ast.Name) else node.attr)
    unset = []
    for module, line, name, position, param in _defaulted_parameters(package):
        passed = (
            name in as_value
            or (position is not None and positions.get(name, 0) > position)
            or param in keywords.get(name, ()) or None in keywords.get(name, ())
        )
        if not passed:
            unset.append(f"{module}:{line}: {name}.{param}")
    return unset


def test_every_defaulted_parameter_is_set_somewhere():
    # a default that no caller overrides is a knob nobody turns: a constant
    package = _parsed(PACKAGE_DIR)
    others = {
        **_parsed(TESTS_DIR),
        **_parsed(os.path.join(ROOT, "demos")),
        **_parsed(os.path.join(ROOT, "perfbench")),
    }
    assert "derived_brackets/sampling.py" in package and "perfbench/workloads.py" in others
    assert _unset_defaults(package, others) == []


def test_the_default_scan_flags_parameters_no_call_sets():
    package = {"pkg/mod.py": ast.parse(
        "def by_keyword(x, k=1):\n    return x\n"
        "def by_position(x, k=1, unset=2):\n    return x\n"
        "def starred(x, k=1):\n    return x\n"
        "def passed_on(x, k=1):\n    return x\n"
        "def keyword_only(x, *, k=1, unset=2):\n    return x\n"
        "class C:\n"
        "    def __init__(self, x, k=1, unset=2):\n        self.x = x\n"
        "    def method(self, x, k=1):\n        return x\n"
        "    @staticmethod\n"
        "    def static(x, k=1):\n        return x\n"
        "def caller(c, args):\n"
        "    c.method(1, 2)\n"
        "    c.static(1)\n"
        "    keyword_only(1, k=2)\n"
        "    return C(1, 2), by_position(1, 2), starred(*args), use(passed_on)\n"
    )}
    others = {"tests/test_mod.py": ast.parse(
        "def test_it():\n    assert by_keyword(1, k=2) == 1\n"
    )}
    assert _unset_defaults(package, others) == [
        "pkg/mod.py:3: by_position.unset",
        "pkg/mod.py:9: keyword_only.unset",
        "pkg/mod.py:12: C.unset",
        "pkg/mod.py:17: static.k",
    ]


def test_no_scan_changes_a_tree():
    # every scan of the test run reads the same cached trees, so none may
    # write to them; each scan reads the package's trees
    package = _parsed(PACKAGE_DIR)
    before = {module: ast.dump(tree, include_attributes=True) for module, tree in package.items()}
    others = {**_parsed(os.path.join(ROOT, "demos")), **_parsed(os.path.join(ROOT, "perfbench"))}
    for scan in (_referenced_names, _imported_names, _terms_writes):
        for tree in package.values():
            scan(tree)
    for scan in (_unreferenced, _unread_methods, _unread_fields, _unset_defaults):
        scan(package, others)
    assert {module: ast.dump(tree, include_attributes=True)
            for module, tree in package.items()} == before
