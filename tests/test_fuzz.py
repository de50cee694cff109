"""A seeded fuzz of the command line: 20,000 in-process ``cli.main`` calls
over all ten subcommands, many of them on malformed input.

The words mix well-formed tokens with Unicode digits, NUL, tab and newline
separators, ``^+1`` and ``^-0`` exponents, indices out of range, 7-digit
exponents and a leading ``-``; ``-n`` takes 0, 1, 7, 262145 and ``x``
besides the supported strand counts.  Every call must return 0, 1 or 2, or
stop in argparse with ``SystemExit(2)``, and raise nothing else.  A return
of 2 writes nothing to stdout and exactly one ``error: ...`` line to
stderr; returns 0 and 1 write nothing to stderr.  The outputs themselves
are not pinned here: ``tests/test_transcript.py`` pins those of its calls.
``verify`` runs two dozen times, the other nine subcommands share the rest.
"""

import contextlib
import io
import random
from collections import Counter

from singbraid import cli

CALLS = 20_000
VERIFY_EVERY = 800
BRAID_NAMES = ("s1", "s2", "t1", "t2")
SP_NAMES = ("a12", "a13", "a23", "b12", "b13", "b23")
MALFORMED = (
    "s١",
    "s1^٣",
    "a13^٢",
    "s1\x00",
    "\x00",
    "s1^+1",
    "t2^+1",
    "s1^-0",
    "b12^-0",
    "s0",
    "t3",
    "s3",
    "a14",
    "s1^1234567",
    "a12^-7654321",
    "s1^",
    "^2",
    "1",
    "x",
    "S1",
)
SEPARATORS = (" ", " ", " ", "\t", "\n", "  ", " \t ")
STRANDS = ("3", "3", "3", "2", "4", "0", "1", "7", "262145", "x")
GENERATORS = ("s1", "s2^-1", "t1", "t2^2", "t1^-2", "s1 s2", "s3", "1", "t1^1234567", "t١")
VERIFY_FLAGS = ([], ["--all"], ["--rs"], ["--theorem1"], ["--prop41"], ["--table"])


def word(rng: random.Random, names: tuple[str, ...]) -> str:
    """Up to eight tokens over ``names``, each malformed with probability
    0.2, joined by mixed separators; now and then a leading ``-``."""
    parts = []
    for _ in range(rng.randrange(9)):
        if rng.random() < 0.2:
            parts.append(rng.choice(MALFORMED))
        else:
            exponent = rng.choice((1, 1, -1, 2, -2, 3))
            name = rng.choice(names)
            parts.append(name if exponent == 1 else f"{name}^{exponent}")
    text = "".join(part + rng.choice(SEPARATORS) for part in parts).rstrip(" ") or "1"
    return "-" + text if rng.random() < 0.01 else text


def argv(rng: random.Random, i: int) -> list[str]:
    if i % VERIFY_EVERY == 0:
        return ["verify", *VERIFY_FLAGS[i // VERIFY_EVERY % len(VERIFY_FLAGS)]]
    command = rng.choice(("parse", "pi", "gens", "rewrite", "nf", "trivial", "equal", "conj", "oracle"))
    if command in ("parse", "trivial"):
        return [command, "-n", rng.choice(STRANDS), word(rng, BRAID_NAMES)]
    if command == "pi":
        flags = ["--one-line"] if rng.random() < 0.5 else []
        return [command, *flags, "-n", rng.choice(STRANDS), word(rng, BRAID_NAMES)]
    if command == "gens":
        return [command, "-n", rng.choice(STRANDS)]
    if command in ("rewrite", "oracle"):
        return [command, word(rng, BRAID_NAMES)]
    if command == "nf":
        flags = ["--canonical"] if rng.random() < 0.5 else []
        return [command, *flags, word(rng, SP_NAMES)]
    if command == "equal":
        return [command, word(rng, SP_NAMES), word(rng, SP_NAMES)]
    return [command, "-g", rng.choice(GENERATORS), word(rng, SP_NAMES)]


def test_fuzzed_calls_exit_0_1_or_2_with_clean_streams():
    rng = random.Random(2401)
    outcomes: Counter = Counter()
    commands: set[str] = set()
    for i in range(CALLS):
        args = argv(rng, i)
        commands.add(args[0])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(args)
            except SystemExit as stop:
                assert stop.code == 2, args
                outcomes["usage"] += 1
                continue
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), args
        if code == 2:
            assert out == "", args
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (args, err)
        else:
            assert err == "", (args, err)
        outcomes[code] += 1
    assert len(commands) == 10
    assert sum(outcomes.values()) == CALLS
    # Each outcome shows up often enough that the checks above are not vacuous.
    assert all(outcomes[kind] >= 100 for kind in (0, 1, 2, "usage")), outcomes
