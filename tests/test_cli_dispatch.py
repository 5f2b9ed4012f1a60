"""``cli._command_line`` against the top-level parser it stands in for.

``main`` splits ``[--json] COMMAND ...`` itself and hands every other argv
to the top-level parser.  For each argv below, the split must give the
parser's ``(json, command, arguments)``, or, where the parser exits, the
same exit code, stdout and stderr.  The argv are the golden commands, the
help commands, the seeded mutant corpus of ``test_cli_mutants`` and a seeded
product of the tokens that move argparse: ``--json``, the command names,
``--``, ``-h``, ``--help``, the abbreviation ``--js``, ``-``, ``--big`` and
``--arg``.
"""

import contextlib
import io
import itertools
import random

from derived_brackets import cli
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
