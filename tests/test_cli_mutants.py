"""Seeded input mutation through ``cli.main``.

Each input file under ``tests/data`` is run with the golden-table commands
that read it, after one seeded mutation: a value swapped for a float, bool,
string or null, a zero denominator, a missing or extra key, an out-of-range
wedge index or basis name, a repeated wedge leg, an exponent of 2000, or a
base or fiber dimension of 2000.
Every mutant must exit 0, 1, 2 or 3 with no exception escaping ``main``,
and exits 2 and 3 print exactly one stderr line.
"""

import contextlib
import copy
import io
import json
import os
import random
import time

from derived_brackets.cli import main
from test_cli import DATA, GOLDEN

MUTANTS = 600

# The exponent-2000 mutants of these monomials are left out, because each
# runs from seconds to minutes before it exits: a p^2000 term lets the
# coisotropic series run to arity 2002, and the flow builds (x1 - t x3)^2000
# one factor at a time.  (file, path of the monomial)
SLOW = {
    ("coiso_pair.json", ("x", "terms", 0, "monomial")),
    ("vdata_coiso.json", ("pi", "terms", 0, "monomial")),
    ("tpois_flow.json", ("B", "terms", 1, "monomial")),
}


def _commands():
    """(file name, argv, position of the file in argv) for each golden
    command and each tests/data file it reads."""
    out = []
    for name in sorted(GOLDEN):
        argv = GOLDEN[name][1]
        for pos, arg in enumerate(argv):
            if arg.startswith(DATA):
                out.append((os.path.basename(arg), argv, pos))
    return out


def _nodes(doc, path=()):
    """(path, container) of every object and list in the JSON tree."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _nodes(value, path + (key,))


def _set(container, key, value):
    def apply():
        container[key] = value
    return apply


def _candidates(doc, kind, rng, name):
    """The mutations of one kind that ``doc`` admits, as functions that
    apply one in place."""
    out = []
    for path, node in _nodes(doc):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        if kind == "type":
            out += [_set(node, k, rng.choice([1.5, True, "x", None])) for k in keys]
        elif kind == "zero-denominator" and isinstance(node, dict):
            if "coef_den" in node:
                out.append(_set(node, "coef_den", 0))
            if "coef" in node:
                out.append(_set(node, "coef", rng.choice([[1, 0], "1/0"])))
        elif kind == "missing" and isinstance(node, dict):
            out += [lambda node=node, k=k: node.pop(k) for k in keys]
        elif kind == "extra" and isinstance(node, dict):
            out.append(_set(node, "extra", 1))
        elif kind == "out-of-range" and path and path[-1] == "wedge":
            out += [_set(node, k, rng.choice([0, -1, 99])) for k in keys]
        elif kind == "out-of-range" and isinstance(node, dict):
            out += [_set(node, k, "zz") for k in ("basis", "left", "right") if k in node]
        elif kind == "repeated-leg" and path and path[-1] == "wedge" and node:
            out.append(lambda node=node: node.append(node[0]))
        elif kind == "exponent" and path and path[-1] == "monomial":
            if (name, path) not in SLOW:
                out += [_set(node, k, 2000) for k in keys]
        elif kind == "huge-dims" and path and path[-1] == "dims":
            out += [_set(node, k, 2000) for k in ("base", "fiber") if k in node]
    return out


KINDS = ("type", "zero-denominator", "missing", "extra", "out-of-range", "repeated-leg",
         "exponent", "huge-dims")


def _mutants(count, seed):
    """``count`` seeded (description, position of the file in argv, argv,
    mutated document)."""
    rng = random.Random(seed)
    commands = _commands()
    docs = {}
    for name, _argv, _pos in commands:
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            docs[name] = json.load(fh)
    out = []
    while len(out) < count:
        name, argv, pos = rng.choice(commands)
        kind = rng.choice(KINDS)
        doc = copy.deepcopy(docs[name])
        candidates = _candidates(doc, kind, rng, name)
        if candidates:
            rng.choice(candidates)()
            out.append((f"{kind} #{len(out)} of {name}", pos, argv, doc))
    return out


def test_mutated_inputs_exit_with_a_contract_code(tmp_path):
    seen = set()
    start = time.perf_counter()
    for what, pos, argv, doc in _mutants(MUTANTS, seed=22):
        path = tmp_path / "mutant.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--json"] + argv[:pos] + [str(path)] + argv[pos + 1:])
        assert code in (0, 1, 2, 3), what
        if code in (2, 3):
            assert err.getvalue().count("\n") == 1, (what, err.getvalue())
        seen.add(code)
    elapsed = time.perf_counter() - start
    assert {0, 1, 2} <= seen
    # about 1 s on a 2-core host; a mutant that runs away shows here
    assert elapsed < 10, f"{MUTANTS} mutants took {elapsed:.2f} s"
