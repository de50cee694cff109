"""The README's library tour runs as a doctest, and each line of its
"Command line" block runs through ``cli.main``, so their printed results
stay true."""

import doctest
import shlex
from pathlib import Path

from singbraid.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# What each line of the "Command line" block prints, by subcommand: the
# stdout its comment quotes, or for parse and equal, which have none, the
# free reduction and the positive verdict.  gens, oracle and verify print
# the shapes their comments name.  Every line exits 0.
STDOUT = {
    "parse": "t2\n",
    "pi": "(1 3 2)\n",
    "rewrite": "a12\n",
    "nf": "d^1 | a23^-1 a13^-1 b12^2 a13\n",
    "trivial": "trivial\n",
    "equal": "equal\n",
    "conj": "b12^-1 a23^-1 b13 a23 b12\n",
}
QUOTED = ("pi", "rewrite", "nf", "trivial", "conj")


def command_line_block() -> dict[str, tuple[list[str], str]]:
    """The arguments after ``singbraid`` and the comment of each line of
    the README's "Command line" block, by subcommand."""
    block = README.read_text().split("## Command line", 1)[1].split("```", 2)[1]
    lines = {}
    for line in filter(str.strip, block.splitlines()):
        program, *argv = shlex.split(line, comments=True)
        assert program == "singbraid", line
        lines[argv[0]] = (argv, line.partition(" #")[2].strip())
    return lines


def run(capsys, argv: list[str]) -> str:
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, ""), argv
    return out


def test_readme_library_tour():
    results = doctest.testfile(str(README), module_relative=False)
    assert results.attempted > 0 and results.failed == 0


def test_readme_command_line_block(capsys):
    lines = command_line_block()
    assert list(lines) == ["parse", "pi", "gens", "rewrite", "nf", "trivial", "equal", "conj", "oracle", "verify"]
    outputs = {name: run(capsys, argv) for name, (argv, _) in lines.items()}
    for name, expected in STDOUT.items():
        assert outputs[name] == expected, name
    for name in QUOTED:
        assert outputs[name].strip() in lines[name][1], name
    # "--one-line for [3,1,2]"
    argv, comment = lines["pi"]
    assert "--one-line for [3,1,2]" in comment
    assert run(capsys, [argv[0], "--one-line", *argv[1:]]) == "[3,1,2]\n"
    # "Schreier generator table (TSV)": a header and the 24 generators.
    assert "(TSV)" in lines["gens"][1] and "(TSV)" in lines["oracle"][1]
    gens = outputs["gens"].splitlines()
    assert gens[0] == "rep\tletter\tambient\ttrivial" and len(gens) == 25
    assert all(row.count("\t") == 3 for row in gens)
    assert all(row.count("\t") == 1 for row in outputs["oracle"].splitlines())
    # "81 presentation checks"
    assert "81 presentation checks" in lines["verify"][1]
    assert outputs["verify"].splitlines()[-1] == "81/81 checks passed"
