"""Static hygiene of the package source.

Every name a module of ``derived_brackets`` imports must be referenced in
that module: a refactor that moves code between modules otherwise leaves
stale imports behind.  ``__init__.py`` is skipped, because its imports are
the package's re-exported API (``__all__`` is built from them).  Likewise
every top-level function and class of the package must be referenced outside
its own definition, in the package, the tests or the demos, and every method
of a package class must be read as an attribute outside its own body, so that
helpers whose last caller has gone are deleted with it.
"""

import ast
import os

import derived_brackets

PACKAGE_DIR = os.path.dirname(os.path.abspath(derived_brackets.__file__))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module, ``__future__`` aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside quoted annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def test_no_unused_imports():
    modules = sorted(
        f for f in os.listdir(PACKAGE_DIR) if f.endswith(".py") and f != "__init__.py"
    )
    assert "graded.py" in modules and "qgeom.py" in modules
    unused = []
    for filename in modules:
        with open(os.path.join(PACKAGE_DIR, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename)
        used = _referenced_names(tree)
        for name, line in sorted(_imported_names(tree).items()):
            if name not in used:
                unused.append(f"{filename}:{line}: {name}")
    assert unused == []


_TERMS_MUTATORS = {"update", "pop", "popitem", "setdefault", "clear"}


def _is_terms(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "terms"


def _terms_writes(tree: ast.Module):
    """(line, what) for every write to a ``.terms`` attribute or into the
    dict it holds, outside ``__init__`` and ``_of``."""
    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = node.name
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if inside not in ("__init__", "_of"):
            while targets:
                target = targets.pop()
                if isinstance(target, (ast.Tuple, ast.List)):
                    targets.extend(target.elts)
                elif _is_terms(target) or (
                    isinstance(target, ast.Subscript) and _is_terms(target.value)
                ):
                    yield node.lineno, "assignment"
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _TERMS_MUTATORS
                and _is_terms(node.func.value)
            ):
                yield node.lineno, f".terms.{node.func.attr}()"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, inside)

    return list(visit(tree, None))


def test_elements_are_never_mutated():
    # an element's integer form (gla.integer_form) is kept beside its terms,
    # so the terms of a built element must never change
    offenders = []
    for filename in sorted(f for f in os.listdir(PACKAGE_DIR) if f.endswith(".py")):
        with open(os.path.join(PACKAGE_DIR, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename)
        offenders += [f"{filename}:{line}: {what}" for line, what in _terms_writes(tree)]
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

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _top_level_defs(tree: ast.Module) -> dict[str, int]:
    return {node.name: node.lineno for node in tree.body if isinstance(node, _DEFS)}


def _references(tree: ast.Module) -> set[tuple[str | None, str]]:
    """(enclosing top-level definition or None, name) for every name the
    module uses: loaded names, attributes, imported names and identifier
    strings (quoted annotations, ``monkeypatch.setattr(module, "name", ..)``)."""
    out = set()
    for top in tree.body:
        owner = top.name if isinstance(top, _DEFS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add((owner, node.id))
            elif isinstance(node, ast.Attribute):
                out.add((owner, node.attr))
            elif isinstance(node, ast.alias):
                out.add((owner, node.name.rsplit(".", 1)[-1]))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    out.add((owner, node.value))
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


def _parsed(directory: str) -> dict[str, ast.Module]:
    out = {}
    for filename in sorted(f for f in os.listdir(directory) if f.endswith(".py")):
        path = os.path.join(directory, filename)
        with open(path, encoding="utf-8") as fh:
            out[os.path.relpath(path, os.path.dirname(directory))] = ast.parse(fh.read(), path)
    return out


def test_every_top_level_definition_is_referenced():
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    demos_dir = os.path.join(os.path.dirname(tests_dir), "demos")
    package = _parsed(PACKAGE_DIR)
    others = {**_parsed(tests_dir), **_parsed(demos_dir)}
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
    read: dict[str, list[set]] = {}  # name -> the defs enclosing each read

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {id(node)}
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.setdefault(node.attr, []).append(inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for tree in (*package.values(), *others.values()):
        visit(tree, frozenset())
    unread = []
    for module, tree in package.items():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = method.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if all(id(method) in inside for inside in read.get(name, ())):
                    unread.append(f"{module}:{method.lineno}: {cls.name}.{name}")
    return unread


def test_every_method_is_read():
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(tests_dir)
    package = _parsed(PACKAGE_DIR)
    others = {
        **_parsed(tests_dir),
        **_parsed(os.path.join(root, "demos")),
        **_parsed(os.path.join(root, "perfbench")),
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
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for module, tree in package.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                unread += [
                    f"{module}:{field.lineno}: {node.name}.{field.target.id}"
                    for field in node.body
                    if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
                    and field.target.id not in read
                ]
    return unread


def test_every_dataclass_field_is_read():
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    demos_dir = os.path.join(os.path.dirname(tests_dir), "demos")
    package = _parsed(PACKAGE_DIR)
    others = {**_parsed(tests_dir), **_parsed(demos_dir)}
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
    def visit(node, owner, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name, module)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list
                )
                bound = 1 if owner is not None and not static else 0
                name = owner if child.name == "__init__" else child.name
                args = child.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for index, arg in enumerate(positional[first:], first):
                    yield module, arg.lineno, name, index - bound, arg.arg
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield module, arg.lineno, name, None, arg.arg
                yield from visit(child, None, module)
            else:
                yield from visit(child, owner, module)

    for module, tree in package.items():
        yield from visit(tree, None, module)


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
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
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
        for node in ast.walk(tree):
            if id(node) in callees or not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                as_value.add(node.id)
            elif isinstance(node, ast.Attribute):
                as_value.add(node.attr)
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
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(tests_dir)
    package = _parsed(PACKAGE_DIR)
    others = {
        **_parsed(tests_dir),
        **_parsed(os.path.join(root, "demos")),
        **_parsed(os.path.join(root, "perfbench")),
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
