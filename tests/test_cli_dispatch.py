"""``cli._command_line`` and the command table's parsers against the parsers
they stand in for.

``main`` splits ``[--json] COMMAND ...`` itself and hands every other argv
to the top-level parser.  For each argv below, the split must give the
parser's ``(json, command, arguments)``, or, where the parser exits, the
same exit code, stdout and stderr.  The argv are the golden commands, the
help commands, the seeded mutant corpus of ``test_cli_mutants`` and a seeded
product of the tokens that move argparse: ``--json``, the command names,
``--``, ``-h``, ``--help``, the abbreviation ``--js``, ``-``, ``--big`` and
``--arg``.

Each command's parser is built from its ``cli.COMMANDS`` entry.  Its
reference is the parser that the per-command argument adders built before
the table held the arguments as data (``_adder_parser``): on every argument
list of up to 2 tokens over the command's own tokens, and 500 seeded lists
of 3 to 8, both must give the same namespace, or the same exit code, stdout
and stderr.
"""

import argparse
import contextlib
import io
import itertools
import random

from derived_brackets import cli
from derived_brackets.suites import SUITE_NAMES
from test_cli import COMMAND_HELP, GOLDEN
from test_cli_mutants import MUTANTS, _mutants

TOKENS = ["--json", *cli.COMMANDS, "--", "-h", "--help", "--js", "-", "--big", "--arg"]


def _outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(list(argv))
        except SystemExit as exc:
            return ("exit", exc.code, out.getvalue(), err.getvalue())
    return ("parsed", args.json, args.command, args.arguments)


def _reference(argv):
    return cli._top_parser().parse_args(argv)


def _corpus():
    argvs = []
    for _code, argv in GOLDEN.values():
        argvs += [argv, ["--json"] + argv]
    argvs.append(["--help"])
    for name in COMMAND_HELP:
        argvs += [[name, "--help"], ["--json", name, "--help"]]
    for _what, pos, argv, _doc in _mutants(MUTANTS, seed=22):
        argvs.append(["--json"] + argv[:pos] + ["mutant.json"] + argv[pos + 1:])
    for length in range(3):
        argvs += [list(p) for p in itertools.product(TOKENS, repeat=length)]
    rng = random.Random(28)
    for _ in range(1500):
        argvs.append([rng.choice(TOKENS) for _ in range(rng.randint(3, 6))])
    return argvs


def test_direct_split_matches_the_top_level_parser(monkeypatch):
    top_parser = cli._top_parser
    fallbacks = []

    def counted():
        fallbacks.append(1)
        return top_parser()

    monkeypatch.setattr(cli, "_top_parser", counted)
    monkeypatch.setenv("COLUMNS", "80")
    argvs = _corpus()
    split = 0
    for argv in argvs:
        before = len(fallbacks)
        got = _outcome(cli._command_line, argv)
        split += len(fallbacks) == before
        assert got == _outcome(_reference, argv), argv
    # every golden and mutant command is split directly, without a top parser
    assert split >= 2 * len(GOLDEN) + MUTANTS, (split, len(argvs))
    assert split < len(argvs)


# -- the table's parsers against the adders' parsers ---------------------------------


def _adder_parser(command):
    p = argparse.ArgumentParser(prog=f"dbrack {command}")
    if command == "verify-gla":
        p.add_argument("file")
    elif command in ("derived", "mc", "twist"):
        p.add_argument("vdata")
        if command == "derived":
            p.add_argument("--big", action="store_true", default=False)
            p.add_argument("--arg", action="append", default=[], help="element file (repeat)")
        elif command == "mc":
            p.add_argument("element")
            p.add_argument("--big", action="store_true", default=False)
        else:
            p.add_argument("alpha")
    elif command in ("flow", "gauge"):
        p.add_argument("data", help="JSON with H, pi and optionally B, X literals")
        if command == "gauge":
            p.add_argument("--check-series", action="store_true")
    else:
        p.add_argument("name", choices=sorted(SUITE_NAMES))
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--samples", type=int, default=25)
        p.add_argument("--max-arity", type=int, default=4)
        p.add_argument("--max-degree", type=int, default=2)
    return p


def _command_tokens(command):
    """Two positionals (a valid and an invalid choice for ``suite``), the
    command's option strings, help, ``-``, a negative number, an
    abbreviation, ``--opt=value``, an int, a word and the empty string."""
    options = [name for name, _keywords in cli.COMMANDS[command][2] if name[0] == "-"]
    files = ["jacobi", "flows"] if command == "suite" else ["A.json", "B.json"]
    abbreviation = options[0][:4] if options else "--he"
    return [*files, *options, "-h", "-", "-1", abbreviation, "--arg=X", "3", "x", ""]


def _parsed(parser, arguments):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(list(arguments)))
        except SystemExit as exc:
            return ("exit", exc.code, out.getvalue(), err.getvalue())


def test_table_parsers_match_the_adders_parsers(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    rng = random.Random(29)
    for command in cli.COMMANDS:
        table, adders = cli._command_parser(command), _adder_parser(command)
        tokens = _command_tokens(command)
        lists = [list(p) for length in range(3) for p in itertools.product(tokens, repeat=length)]
        lists += [[rng.choice(tokens) for _ in range(rng.randint(3, 8))] for _ in range(500)]
        for arguments in lists:
            assert _parsed(table, arguments) == _parsed(adders, arguments), (command, arguments)


def test_repeatable_option_starts_empty_on_every_call(monkeypatch):
    # a command that appends to args.arg must not leave the value to the next call
    seen = []

    def appending(args):
        seen.append(list(args.arg))
        args.arg.append("leaked.json")
        return 0

    help_line, _run, arguments = cli.COMMANDS["derived"]
    monkeypatch.setitem(cli.COMMANDS, "derived", (help_line, appending, arguments))
    for argv in (["derived", "F"], ["--json", "derived", "F"], ["derived", "F", "--arg", "A"],
                 ["--js", "derived", "F"]):
        assert cli.main(argv) == 0, argv
    assert seen == [[], [], ["A"], []]
