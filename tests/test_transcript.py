"""A pinned transcript of the command line.

A seeded generator makes about 3,000 in-process ``cli.main`` calls across
every subcommand and flag, about 5% of them malformed (bad tokens, indices
out of range, unsupported strand counts, a ``-g`` of two letters, numbers
past the digit limit).  Each call's argv, exit code, stdout and stderr go
into one sha256 per subcommand.  A change that alters CLI output on purpose
re-pins only the subcommands it changes, and says so in CHANGES.md and the
README.

The inputs are built here from literal text, not from the package, so
that a change to the package cannot move the inputs with the outputs.
Malformed calls stay inside the package's own ``ValueError`` handling:
argparse's usage messages differ between Python versions.  ``cli`` builds
its parser once per process, so the calls share one parser, as the calls
of a batch would.
"""

import contextlib
import hashlib
import io
import json
import random

from singbraid import cli

SP_NAMES = ("a12", "a13", "a23", "b12", "b13", "b23")
SG3_RELATORS = (
    "s1 t1 s1^-1 t1^-1",
    "s1 s2 s1 s2^-1 s1^-1 s2^-1",
    "s2 t2 s2^-1 t2^-1",
    "s1 s2 t1 s2^-1 s1^-1 t2^-1",
    "s2 s1 t2 s1^-1 s2^-1 t1^-1",
)
# Relations of SP_3: c = a13 a23 commutes with b12, the two factors of the
# free product are abelian, and d = a12 a13 a23 is central.
SP3_RELATIONS = (
    "b12 a13 a23 b12^-1 a23^-1 a13^-1",
    "a13 b13 a13^-1 b13^-1",
    "a23 b23 a23^-1 b23^-1",
    "a12 a13 a23 b12 a23^-1 a13^-1 a12^-1 b12^-1",
    "a12 a13 a23 b13 a23^-1 a13^-1 a12^-1 b13^-1",
)
C_HEAVY_CHUNKS = ("a13 a23", "a23^-1 a13^-1", "b12", "b12^-1", "a13", "a23^-1", "b13", "a12^2")
BAD_TOKENS = ("s0", "x1", "s1^0", "a14", "t", "s1^1234567", "b12^", "S1")
MALFORMED_SHARE = 0.05


def token(name: str, exponent: int) -> str:
    return name if exponent == 1 else f"{name}^{exponent}"


def inverse(text: str) -> str:
    """The inverse of a word written as tokens with optional exponents."""
    tokens = []
    for part in reversed(text.split()):
        name, _, exponent = part.partition("^")
        if name != "1":
            tokens.append(token(name, -int(exponent or 1)))
    return " ".join(tokens) or "1"


def braid_word(rng: random.Random, strands: int, max_len: int, max_exp: int = 3) -> str:
    letters = [
        token(f"{rng.choice('st')}{rng.randrange(1, strands)}", rng.choice((-1, 1)) * rng.randint(1, max_exp))
        for _ in range(rng.randrange(max_len + 1))
    ]
    return " ".join(letters) or "1"


def relator_product(rng: random.Random) -> str:
    """A product of conjugated SG_3 relators: trivial."""
    parts = []
    for _ in range(rng.randint(1, 4)):
        relator = rng.choice(SG3_RELATORS)
        if rng.random() < 0.5:
            relator = inverse(relator)
        by = braid_word(rng, 3, 4)
        parts += [by, relator, inverse(by)]
    return " ".join(parts)


def kernel_word(rng: random.Random) -> str:
    """A 3-strand word with trivial projection, trivial or not in SG_3."""
    word = relator_product(rng)
    if rng.random() < 0.6:
        square = token(f"{rng.choice('st')}{rng.randint(1, 2)}", rng.choice((-2, 2)))
        by = braid_word(rng, 3, 3)
        word = f"{word} {by} {square} {inverse(by)}"
    return word


def sg3_word(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.3:
        return braid_word(rng, 3, 10)
    return relator_product(rng) if roll < 0.6 else kernel_word(rng)


def sp_word(rng: random.Random, max_len: int = 10) -> str:
    if rng.random() < 0.4:
        chunks = [rng.choice(C_HEAVY_CHUNKS) for _ in range(rng.randrange(1, max_len))]
    else:
        chunks = [
            token(rng.choice(SP_NAMES), rng.choice((-1, 1)) * rng.randint(1, 3))
            for _ in range(rng.randrange(max_len + 1))
        ]
    return " ".join(chunks) or "1"


def equal_to(rng: random.Random, text: str) -> str:
    """``text`` with an SP_3 relation, or a cancelling pair, put in."""
    parts = text.split()
    cut = rng.randrange(len(parts) + 1)
    relation = rng.choice(SP3_RELATIONS)
    insert = relation if rng.random() < 0.5 else inverse(relation)
    if rng.random() < 0.2:
        name = rng.choice(SP_NAMES)
        insert = f"{name} {name}^-1"
    return " ".join(parts[:cut] + [insert] + parts[cut:])


def spoil(rng: random.Random, text: str) -> str:
    """``text`` with one token replaced by a bad one."""
    parts = text.split()
    parts[rng.randrange(len(parts))] = rng.choice(BAD_TOKENS)
    return " ".join(parts)


def maybe_spoil(rng: random.Random, text: str) -> str:
    return spoil(rng, text) if rng.random() < MALFORMED_SHARE else text


def calls(rng: random.Random):
    """The argv of every call, in order."""
    for _ in range(400):
        strands = rng.randint(2, 7)
        yield ["parse", "-n", str(strands), maybe_spoil(rng, braid_word(rng, strands, 12))]
    for _ in range(400):
        strands = rng.randint(2, 7)
        flags = ["--one-line"] if rng.random() < 0.5 else []
        word = braid_word(rng, strands, 12)
        if rng.random() < MALFORMED_SHARE:
            # An index one past the strand count.
            word = f"{word} s{strands}"
        yield ["pi", *flags, "-n", str(strands), word]
    for strands in (2, 3, 4, 3, 2, 5, 1, 7):
        yield ["gens", "-n", str(strands)]
    for _ in range(400):
        # A word outside the kernel is refused, as is a bad token.
        word = braid_word(rng, 3, 6) if rng.random() < MALFORMED_SHARE else maybe_spoil(rng, kernel_word(rng))
        yield ["rewrite", word]
    for _ in range(500):
        flags = ["--canonical"] if rng.random() < 0.5 else []
        yield ["nf", *flags, maybe_spoil(rng, sp_word(rng, 16))]
    for _ in range(500):
        strands = "4" if rng.random() < 0.02 else "3"
        yield ["trivial", "-n", strands, maybe_spoil(rng, sg3_word(rng))]
    for _ in range(300):
        first = sp_word(rng)
        second = equal_to(rng, first) if rng.random() < 0.5 else sp_word(rng)
        yield ["equal", maybe_spoil(rng, first), second]
    for _ in range(300):
        generator = token(f"{rng.choice('st')}{rng.randint(1, 2)}", rng.choice((-2, -1, 1, 2)))
        if rng.random() < MALFORMED_SHARE:
            generator = rng.choice(("s1 s2", "s3", "1", "t1 t1^-1"))
        yield ["conj", "-g", generator, maybe_spoil(rng, sp_word(rng, 6))]
    for _ in range(300):
        yield ["oracle", maybe_spoil(rng, sg3_word(rng))]
    for flags in ([], ["--all"], ["--rs"], ["--theorem1"], ["--prop41"], ["--table"]):
        yield ["verify", *flags]


def transcript_digests() -> tuple[dict[str, str], int, int]:
    """One sha256 per subcommand over the JSON record of each call, the
    number of calls and the number of calls that exited 2."""
    digests = {}
    count = malformed = 0
    for argv in calls(random.Random(1601)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        record = json.dumps([argv, code, out.getvalue(), err.getvalue()]) + "\n"
        digests.setdefault(argv[0], hashlib.sha256()).update(record.encode())
        count += 1
        malformed += code == 2
    return {name: digest.hexdigest() for name, digest in digests.items()}, count, malformed


PINNED = {
    "parse": "28d4fd202245c42e0f0461f00d0cc65508a488dc56bed00ea7bed9e616086e84",
    "pi": "bf0fa6b360ff0212c48c0c35f92e8760862e57edab1f0f0828b77bfee81a80ca",
    "gens": "3cc6b9b71b90aea17fb5936d54271d34718daebf2b499dad464d3d9ed1ef2d16",
    "rewrite": "5ece6023ac67d88d87c60a63e6afbef5c91c11d0edc2e0b369daca38c23b8e80",
    "nf": "0a5f4e58e11af22a32667996b3ca5b7b653d39e8c9586b008a4681165b2b1bcf",
    "trivial": "4fbae60e051fa2dc87ba97f33c00c482287cfbc44d2796772aefec4b7946d9e9",
    "equal": "c3a1f58c9ed976595affc190cf2e7966284c48c82997c319da3074423d96dd41",
    "conj": "975bcfb7eeddcd2fec40c72181829c4cbc006805d9e427738b26d9fc436dfe21",
    "oracle": "7bbabe5e24be3f98382876e2f28c12e9377264d2f3ba4d9813623ee43efd3def",
    "verify": "174bb2d7b37646439704d828fb9048f7687be40c29590fca91acf36c69c08161",
}


def test_cli_transcript_is_pinned():
    digests, count, malformed = transcript_digests()
    assert 2900 <= count <= 3200
    assert 0.03 <= malformed / count <= 0.08
    assert digests == PINNED
