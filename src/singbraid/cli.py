"""
Command-line front end.

Every subcommand is a thin wrapper over the library; no algebra lives
here.  Exit codes: 0 for success (and for "trivial"/"equal" verdicts),
1 for a false verdict, 2 for usage errors, 3 when a verification check
fails.  Output is line oriented and deterministic.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import normal_form, oracles, rewriting, sp3, verify
from .permutations import pi
from .words import parse_braid_word

_VERIFY_FLAGS = {
    "rs": verify.GROUP_REWRITTEN,
    "theorem1": verify.GROUP_PRESENTATION,
    "prop41": verify.GROUP_CONJUGATION,
    "table": verify.GROUP_EXPRESSION,
}


# Built once per process: a parser takes about 2 ms to build, more than most
# decisions, and parsing leaves it unchanged.
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singbraid",
        description="word problem tools for the 3-strand singular braid group",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("parse", help="parse and freely reduce a braid word")
    p.add_argument("-n", type=int, default=3, dest="strands")
    p.add_argument("word")

    p = sub.add_parser("pi", help="project a braid word to the symmetric group")
    p.add_argument("-n", type=int, default=3, dest="strands")
    p.add_argument("--one-line", action="store_true", help="print one-line notation")
    p.add_argument("word")

    p = sub.add_parser("gens", help="print the Schreier generator table as TSV")
    p.add_argument("-n", type=int, default=3, dest="strands")

    p = sub.add_parser("rewrite", help="rewrite a kernel word into the SP_3 generators")
    p.add_argument("word")

    p = sub.add_parser("nf", help="normal form of an SP_3 word")
    p.add_argument("--canonical", action="store_true", help="compact display form")
    p.add_argument("word")

    p = sub.add_parser("trivial", help="decide triviality of a 3-strand word in SG_3")
    p.add_argument("-n", type=int, default=3, dest="strands")
    p.add_argument("word")

    p = sub.add_parser("equal", help="decide equality of two SP_3 words")
    p.add_argument("first")
    p.add_argument("second")

    p = sub.add_parser("conj", help="conjugate an SP_3 word by an ambient generator")
    p.add_argument("-g", required=True, dest="generator", help="e.g. s1 or t2^-1")
    p.add_argument("word")

    p = sub.add_parser("oracle", help="print the cheap invariant verdicts")
    p.add_argument("word")

    p = sub.add_parser("verify", help="run the presentation verification checks")
    group = p.add_mutually_exclusive_group()
    for flag in ("all", *_VERIFY_FLAGS):
        group.add_argument(f"--{flag}", action="store_true")

    return parser


def _cmd_parse(args) -> int:
    print(parse_braid_word(args.word, args.strands))
    return 0


def _cmd_pi(args) -> int:
    perm = pi(parse_braid_word(args.word, args.strands))
    print(perm.one_line_string() if args.one_line else perm.cycle_string())
    return 0


def _cmd_gens(args) -> int:
    # The table is built first, so that an unsupported strand count prints
    # nothing to stdout.
    entries = rewriting.coset_table(args.strands).generators
    print("rep\tletter\tambient\ttrivial")
    for entry in entries:
        print(
            f"{entry.generator.rep}\t{entry.generator.letter.token()}"
            f"\t{entry.ambient}\t{'yes' if entry.trivial else 'no'}"
        )
    return 0


def _cmd_rewrite(args) -> int:
    word = parse_braid_word(args.word, 3)
    print(sp3.rewrite_to_sp3(word))
    return 0


def _cmd_nf(args) -> int:
    form = normal_form.center_split(sp3.parse_sp_word(args.word))
    print(normal_form.canonical_display(form) if args.canonical else form)
    return 0


def _cmd_trivial(args) -> int:
    if args.strands != 3:
        raise ValueError("the triviality decision is implemented for n = 3")
    if normal_form.is_trivial_sg3(parse_braid_word(args.word, 3)):
        print("trivial")
        return 0
    print("nontrivial")
    return 1


def _cmd_equal(args) -> int:
    first = sp3.parse_sp_word(args.first)
    second = sp3.parse_sp_word(args.second)
    if normal_form.equal_sp3(first, second):
        print("equal")
        return 0
    print("not equal")
    return 1


def _cmd_conj(args) -> int:
    letter_word = parse_braid_word(args.generator, 3)
    if len(letter_word.letters) != 1:
        raise ValueError(f"-g expects a single generator, got {args.generator!r}")
    word = sp3.parse_sp_word(args.word)
    print(sp3.conjugate_by_sg3_generator(word, letter_word.letters[0]))
    return 0


def _cmd_oracle(args) -> int:
    word = parse_braid_word(args.word, 3)
    for name, verdict in oracles.oracle_report(word):
        print(f"{name}\t{verdict}")
    return 0


def _cmd_verify(args) -> int:
    chosen = [name for flag, name in _VERIFY_FLAGS.items() if getattr(args, flag)]
    checks = verify.verify_presentation(chosen or None)
    for check in checks:
        line = f"{'PASS' if check.passed else 'FAIL'} {check.group} {check.label}"
        if not check.passed:
            line += f" [{check.witness}]"
        print(line)
    passed = sum(check.passed for check in checks)
    print(f"{passed}/{len(checks)} checks passed")
    return 0 if passed == len(checks) else 3


_COMMANDS = {
    "parse": _cmd_parse,
    "pi": _cmd_pi,
    "gens": _cmd_gens,
    "rewrite": _cmd_rewrite,
    "nf": _cmd_nf,
    "trivial": _cmd_trivial,
    "equal": _cmd_equal,
    "conj": _cmd_conj,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
