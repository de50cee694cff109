"""Seeded word families for the decision benchmark, with expected verdicts.

Every word is generated as text, together with the verdict it must get and a
certificate for that verdict.  The certificates are computed here, from the
presentation alone, and never by the engine under test:

* ``trivial:<construction>``: the word is a product of conjugated defining
  relators (or of relations derived from them), so it is trivial.
* ``projection``: the image in the symmetric group S_3 is not the identity.
* ``exponent-sum``: the crossing or singular exponent sum is nonzero; every
  defining relator of SG_3 balances both.
* ``matrix(t->s)`` / ``matrix(t->s^-1)``: sending t_i to s_i^(+-1) is a
  homomorphism onto B_3, and the 2x2 integer matrix image of the word under
  s1 -> [[1,1],[0,1]], s2 -> [[1,0],[-1,1]] is not the identity.
* ``sp3-exponent-sum(<g>)``: the exponent sum of the SP_3 generator g is
  nonzero; each of the eight SP_3 relators keeps all six sums.

A generated word that no certificate covers is dropped and drawn again, so
every family keeps its share of the stream.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

# Tokens are (generator name, exponent) pairs; the text form is what the
# program under test receives.
Token = tuple[str, int]


def tokens_of(text: str) -> list[Token]:
    """The tokens of a word written as ``render`` writes it."""
    pairs = (t.partition("^") for t in text.split() if t != "1")
    return [(name, int(e) if e else 1) for name, _, e in pairs]


SG_LETTERS = ("s1", "s2", "t1", "t2")
# The five defining relators of SG_3.
SG_RELATORS = tuple(
    tuple(tokens_of(text))
    for text in (
        "s1 t1 s1^-1 t1^-1",
        "s1 s2 s1 s2^-1 s1^-1 s2^-1",
        "s2 t2 s2^-1 t2^-1",
        "s1 s2 t1 s2^-1 s1^-1 t2^-1",
        "s2 s1 t2 s1^-1 s2^-1 t1^-1",
    )
)
SP_BASE = ("a13", "a23", "b13", "b23")
SP_NAMES = ("a12", "a13", "a23", "b12", "b13", "b23")
# The defining SG_3 words of the six SP_3 generators, one unit letter a token.
SP_IN_SG: dict[str, tuple[Token, ...]] = {
    "a12": (("s1", 1), ("s1", 1)),
    "a13": (("s2", 1), ("s1", 1), ("s1", 1), ("s2", -1)),
    "a23": (("s2", 1), ("s2", 1)),
    "b12": (("s1", 1), ("t1", 1)),
    "b13": (("s2", 1), ("s1", 1), ("t1", 1), ("s2", -1)),
    "b23": (("s2", 1), ("t2", 1)),
}


class Word(NamedTuple):
    text: str
    trivial: bool
    certificate: str
    size: int
    family: str


def render(tokens: list[Token] | tuple[Token, ...]) -> str:
    return " ".join(name if e == 1 else f"{name}^{e}" for name, e in tokens) or "1"


def invert(tokens) -> list[Token]:
    return [(name, -e) for name, e in reversed(tokens)]


def unit_size(tokens) -> int:
    return sum(abs(e) for _, e in tokens)


# --- certificates -----------------------------------------------------------

def permutation(tokens) -> tuple[int, int, int]:
    """Image in S_3: each of s_i, t_i swaps positions i and i+1."""
    perm = [0, 1, 2]
    for name, e in tokens:
        if e % 2:
            i = int(name[1]) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return tuple(perm)


def exponent_sums(tokens) -> tuple[int, int]:
    sigma = sum(e for name, e in tokens if name[0] == "s")
    tau = sum(e for name, e in tokens if name[0] == "t")
    return sigma, tau


def matrix_image(tokens, tau_sign: int) -> tuple[int, int, int, int]:
    """Matrix of the B_3 image under t_i -> s_i^tau_sign, row-major."""
    a, b, c, d = 1, 0, 0, 1
    for name, e in tokens:
        if name[0] == "t":
            e *= tau_sign
        if name[1] == "1":  # times [[1, e], [0, 1]]
            b, d = a * e + b, c * e + d
        else:  # times [[1, 0], [-e, 1]]
            a, c = a - b * e, c - d * e
    return a, b, c, d


def certify_sg3(tokens) -> str | None:
    """A certificate that the SG_3 word is nontrivial, or None."""
    if permutation(tokens) != (0, 1, 2):
        return "projection"
    if exponent_sums(tokens) != (0, 0):
        return "exponent-sum"
    if matrix_image(tokens, 1) != (1, 0, 0, 1):
        return "matrix(t->s)"
    if matrix_image(tokens, -1) != (1, 0, 0, 1):
        return "matrix(t->s^-1)"
    return None


def certify_sp3(tokens) -> str | None:
    """A certificate that the SP_3 word is nontrivial, or None."""
    sums = dict.fromkeys(SP_NAMES, 0)
    for name, e in tokens:
        sums[name] += e
    for name in SP_NAMES:
        if sums[name]:
            return f"sp3-exponent-sum({name})"
    return None


# --- generators -------------------------------------------------------------

def random_sg_word(rng: random.Random, length: int) -> list[Token]:
    """A freely reduced word of unit letters with exponents +-1."""
    tokens: list[Token] = []
    while len(tokens) < length:
        token = (rng.choice(SG_LETTERS), rng.choice((1, -1)))
        if tokens and tokens[-1] == (token[0], -token[1]):
            continue
        tokens.append(token)
    return tokens


def fix_projection(rng: random.Random, tokens: list[Token]) -> list[Token]:
    """Append at most three unit letters so that the projection is trivial."""
    for indices in ((), (1,), (2,), (1, 2), (2, 1), (1, 2, 1)):
        suffix = [(rng.choice("st") + str(i), rng.choice((1, -1))) for i in indices]
        if permutation(tokens + suffix) == (0, 1, 2):
            return tokens + suffix
    raise AssertionError("S_3 is generated by the adjacent transpositions")


def conjugated_relators(rng: random.Random, count: int, conj_len: int) -> list[Token]:
    """A product of ``count`` relators, each inverted or not and conjugated by
    a random word of ``conj_len`` letters: trivial by construction."""
    tokens: list[Token] = []
    for _ in range(count):
        relator = list(rng.choice(SG_RELATORS))
        if rng.random() < 0.5:
            relator = invert(relator)
        x = random_sg_word(rng, conj_len)
        tokens += x + relator + invert(x)
    return tokens


def sg_random(rng, length):
    return random_sg_word(rng, length), None


def sg_kernel(rng, length):
    return fix_projection(rng, random_sg_word(rng, max(1, length - 3))), None


def sg_relators(rng, length):
    count = rng.randint(1, max(1, min(3, length // 5)))
    conj_len = max(0, (length - 5 * count) // (2 * count))
    return conjugated_relators(rng, count, conj_len), "trivial:relator-product"


def sg_long_relators(rng, length):
    """Relators conjugated by words of two letters, one per ten letters: the
    cost of so many small pieces varies little between words of one size."""
    count = max(1, length // 10)
    return conjugated_relators(rng, count, (length - 5 * count) // (2 * count)), "trivial:relator-product"


def sg_pure(rng, length):
    """A random product of the SG_3 words of the six SP_3 generators and
    their inverses: a kernel word that rewrites to about a third as many
    SP_3 letters as a random kernel word of the same length."""
    tokens: list[Token] = []
    while len(tokens) < length:
        word = list(SP_IN_SG[rng.choice(SP_NAMES)])
        tokens += word if rng.random() < 0.5 else invert(word)
    return tokens, None


def _c_power(k: int) -> list[Token]:
    """c^k with c = a13 a23, written out letter by letter."""
    return [("a13", 1), ("a23", 1)] * k if k > 0 else [("a23", -1), ("a13", -1)] * -k


def _sp_letter(rng) -> Token:
    return rng.choice(SP_BASE), rng.choice((1, -1))


def sp_tower(rng, length):
    """(b12^s c^k)^m b12^-sm c^-km, conjugated by a short word: b12 commutes
    with c, so the word is trivial, and reducing it cancels a cascade of
    nested pinches."""
    s, k = rng.choice((1, -1)), rng.choice((1, -1))
    m = max(1, length // 6)
    u = [_sp_letter(rng) for _ in range(rng.randint(0, 3))]
    body = ([("b12", s)] + _c_power(k)) * m + [("b12", -s * m)] + _c_power(-k * m)
    return u + body + invert(u), "trivial:pinch-tower"


def sp_pinch(rng, length):
    """Blocks b12^s c^k b12^-s x with a random base letter x each: one pinch
    per block, nontrivial."""
    s, k = rng.choice((1, -1)), rng.choice((1, -1))
    tokens: list[Token] = []
    for _ in range(max(1, length // 5)):
        tokens += [("b12", s)] + _c_power(k) + [("b12", -s), _sp_letter(rng)]
    return tokens, None


def sp_pinch_free(rng, length):
    """(b12^s y b12^-s z)^m with single base letters y, z: no base segment
    between stable letters is a power of c, so nothing cancels."""
    tokens: list[Token] = []
    for _ in range(max(1, length // 4)):
        s = rng.choice((1, -1))
        tokens += [("b12", s), _sp_letter(rng), ("b12", -s), _sp_letter(rng)]
    return tokens, None


def _big_power(rng, size: int) -> Token:
    """s_i^e with |e| = size rounded down to even.

    An even power has trivial projection, so the word is a kernel word that
    goes through the whole pipeline.  The base is a crossing: a power of a
    singular letter rewrites to |e| SP_3 letters that do not merge, which
    would measure the quadratic rewrite_to_sp3 of long-kernel instead of the
    cost of expanding exponents.
    """
    return rng.choice(("s1", "s2")), 2 * (size // 2) * rng.choice((1, -1))


def bx_commutator(rng, size):
    """s_i^e y s_i^-e y^-1 with y = s_j or t_j, j != i: nontrivial."""
    x, e = _big_power(rng, size)
    y = rng.choice([g for g in SG_LETTERS if g[1] != x[1]])
    return [(x, e), (y, 1), (x, -e), (y, -1)], None


def bx_commuting(rng, size):
    """s_i^e t_i s_i^-e t_i^-1: trivial, since s_i t_i = t_i s_i."""
    x, e = _big_power(rng, size)
    y = "t" + x[1]
    return [(x, e), (y, 1), (x, -e), (y, -1)], "trivial:commuting-pair"


def bx_conjugated_relator(rng, size):
    """s_i^e r s_i^-e for a defining relator r: trivial, at most 8 syllables."""
    x, e = _big_power(rng, size)
    relator = list(rng.choice(SG_RELATORS))
    if rng.random() < 0.5:
        relator = invert(relator)
    return [(x, e)] + relator + [(x, -e)], "trivial:conjugated-relator"


# --- workloads --------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # "sg3": decided by is_trivial_sg3(parse_braid_word(text, 3));
    # "sp3": decided by is_trivial_sp3(parse_sp_word(text)).
    group: str
    families: tuple[Callable, ...]
    # (low, high) bounds of the target size of the main class and of the
    # large class; the large class exists to measure decide_growth.
    main: tuple[int, int]
    large: tuple[int, int]
    size_unit: str  # "letters" (unit letters) or "|e|"
    # The decide_tail_ms percentile: fixed, so that runs compare one
    # statistic, and low enough to leave at least 20 main-class samples
    # beyond it at the seed's speed; rarer percentiles were too noisy.
    tail_pct: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "short-mixed",
            "4-40 letter words where per-call constants (parse, pi, Permutation) dominate; the CLI user's traffic",
            "sg3",
            (sg_random, sg_kernel, sg_relators),
            (4, 20),
            (24, 40),
            "letters",
            99.5,
        ),
        Workload(
            "long-kernel",
            "kernel words of about 500 and 2000 letters with exponents +-1: the quadratic rewrite_to_sp3 dominates",
            "sg3",
            # An odd number of families, so that the median of the mix falls
            # inside one family's spread and not in a gap between two.
            (sg_kernel, sg_pure, sg_long_relators),
            (490, 510),
            (1960, 2040),
            "letters",
            90.0,
        ),
        Workload(
            "sp3-pinch",
            "SP_3 words with cascading, single and no pinches: Britton reduction dominates and nothing else runs",
            "sp3",
            (sp_tower, sp_pinch, sp_pinch_free),
            (490, 510),
            (1960, 2040),
            "letters",
            95.0,
        ),
        Workload(
            "big-exponent",
            "at most 8 syllables with |e| near 1e3 and 1e4: cost comes from expanding exponents",
            "sg3",
            (bx_commutator, bx_commuting, bx_conjugated_relator),
            # At most about 1e4: today the pipeline loops about |e| times per
            # syllable, so a larger e only makes a run longer.
            (900, 1000),
            (9000, 10000),
            "|e|",
            90.0,
        ),
    )
}


def word_stream(workload: Workload, size_class: str, seed: int):
    """The endless, deterministic sequence of words of one size class.

    Families take turns, so each holds an equal share of any prefix.  The
    big-exponent families read the class bounds as |e|, the others as unit
    letters.
    """
    rng = random.Random(f"{workload.name}:{size_class}:{seed}")
    low, high = workload.main if size_class == "main" else workload.large
    certify = certify_sp3 if workload.group == "sp3" else certify_sg3
    for index in itertools.count():
        family = workload.families[index % len(workload.families)]
        certificate = None
        while certificate is None:  # an uncertified word is drawn again
            tokens, certificate = family(rng, rng.randint(low, high))
            certificate = certificate or certify(tokens)
        if workload.size_unit == "|e|":
            size = max(abs(e) for _, e in tokens)
        else:
            size = unit_size(tokens)
        yield Word(
            render(tokens),
            certificate.startswith("trivial"),
            certificate,
            size,
            family.__name__,
        )
