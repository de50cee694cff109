"""Check that the tests kill a fixed list of mutants of the source.

Usage:  python3 .github/mutants.py [NAME...]    (default: every mutant)

Each mutant is one exact edit of a module under src/: the text it replaces,
which must occur exactly once, its replacement, and the tests that should
fail once it is applied.  For each mutant the script copies src/, tests/,
pyproject.toml and README.md into a temporary directory, applies the edit
there, and runs the named tests with ``pytest -x``.  The named tests first run once on
an unedited copy, where they must pass.  Exits 0 when every mutant is
killed, 1 when one survives, and 2 when an edit does not apply exactly
once or the unedited tests fail.  Standard library and pytest only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120


class Mutant(NamedTuple):
    name: str
    module: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "exponent-sum-stage-never-fires",
        "src/singbraid/normal_form.py",
        "    if any(sums.values()):\n",
        "    if all(sums.values()):\n",
        ("tests/test_normal_form.py::test_exponent_sums_refute_before_reduction",),
    ),
    Mutant(
        "six-sums-drop-the-count",
        "src/singbraid/normal_form.py",
        "        sums[name] += exponent * count\n",
        "        sums[name] += exponent\n",
        ("tests/test_normal_form.py::test_six_sums_count_each_distinct_letter_once",),
    ),
    Mutant(
        "sg3-sum-exit-never-fires",
        "src/singbraid/normal_form.py",
        "    if exponent_sums(word) != (0, 0):\n",
        "    if exponent_sums(word) is None:\n",
        ("tests/test_normal_form.py::test_sigma_tau_sums_refute_before_projection",),
    ),
    Mutant(
        "d-exponent-counts-other-letters",
        "src/singbraid/normal_form.py",
        " in word._letter_counts() if name == A12), word\n",
        " in word._letter_counts() if name != A12), word\n",
        ("tests/test_normal_form.py::test_eliminate_a12_examples",),
    ),
    Mutant(
        "push-run-sign",
        "src/singbraid/normal_form.py",
        "        first, second = _C_SYLLABLES[sign]\n",
        "        first, second = _C_SYLLABLES[-sign]\n",
        ("tests/test_normal_form.py",),
    ),
    Mutant(
        "pi-parity",
        "src/singbraid/permutations.py",
        " in reversed(keys) if letter.exponent % 2]\n",
        " in reversed(keys) if not letter.exponent % 2]\n",
        ("tests/test_permutations.py",),
    ),
    Mutant(
        "pi-token-swaps-keep-even-exponents",
        "src/singbraid/permutations.py",
        " in letter_of.items() if exponent % 2}\n",
        " in letter_of.items()}\n",
        ("tests/test_permutations.py::test_pi_of_parsed_tokens_equals_pi_of_their_letters",),
    ),
    Mutant(
        "pinch-sign-test",
        "src/singbraid/normal_form.py",
        "                if (reduced_powers[-1] > 0) == (exponent > 0):\n",
        "                if (reduced_powers[-1] > 0) != (exponent > 0):\n",
        ("tests/test_normal_form.py",),
    ),
    Mutant(
        "c-syllables-order",
        "src/singbraid/normal_form.py",
        "    -1: (FactorSyllable(F23, -1, 0), FactorSyllable(F13, -1, 0)),\n",
        "    -1: (FactorSyllable(F13, -1, 0), FactorSyllable(F23, -1, 0)),\n",
        ("tests/test_normal_form.py",),
    ),
    Mutant(
        "cyclic-power-length-test",
        "src/singbraid/normal_form.py",
        "    if len(entries) == 1 and entries[0].__class__ is int:\n",
        "    if entries[0].__class__ is int:\n",
        ("tests/test_normal_form.py",),
    ),
    Mutant(
        "free-reduce-cancel-forgets-top",
        "src/singbraid/words.py",
        "                stack.pop()\n                top = stack[-1] if stack else None\n                break\n",
        "                stack.pop()\n                top = None\n                break\n",
        ("tests/test_words.py",),
    ),
    Mutant(
        "parse-bound-comparison-flipped",
        "src/singbraid/words.py",
        "    if bound > MAX_UNIT_LETTERS and ",
        "    if bound < MAX_UNIT_LETTERS and ",
        ("tests/test_words.py::test_parse_over_the_limit_after_reduction",),
    ),
    Mutant(
        "walk-odd-keeps-coset",
        "src/singbraid/rewriting.py",
        "            if odd:\n                coset = there\n",
        "            if odd:\n",
        ("tests/test_rewriting.py",),
    ),
    Mutant(
        "walk-divmod-without-abs",
        "src/singbraid/rewriting.py",
        "            pairs, odd = divmod(abs(exponent), 2)\n",
        "            pairs, odd = divmod(exponent, 2)\n",
        ("tests/test_rewriting.py",),
    ),
    Mutant(
        "walk-token-keys-the-inverse-row",
        "src/singbraid/rewriting.py",
        "{u.token(): row for u, row in self.moves.items()}",
        "{u.inverse().token(): row for u, row in self.moves.items()}",
        ("tests/test_rewriting.py::test_walk_of_parsed_tokens_is_freely_equal_to_the_walk_of_the_letters",),
    ),
    Mutant(
        "expression-row-corrupt",
        "src/singbraid/sp3.py",
        '    ("s2", "t1"): "b13 a13^-1",\n',
        '    ("s2", "t1"): "b13 a13",\n',
        (
            "tests/test_sp3.py::test_verify_presentation_all_pass",
            "tests/test_derivations.py::test_expression_rows_derive_from_the_sg3_relators",
        ),
    ),
    Mutant(
        "verify-rs-skips-a-coset",
        "src/singbraid/verify.py",
        "coset_table(3).elements:\n",
        "coset_table(3).elements[1:]:\n",
        ("tests/test_cli.py::test_verify_subsets",),
    ),
    Mutant(
        "a12-run-sign",
        "src/singbraid/normal_form.py",
        "            _push_run(entries, -exponent)\n",
        "            _push_run(entries, exponent)\n",
        ("tests/test_normal_form.py::test_britton_reads_a12_as_a_c_run",),
    ),
    Mutant(
        "extend-appends-runs-raw",
        "src/singbraid/normal_form.py",
        "            _push_run(entries, entry)\n",
        "            entries.append(entry)\n",
        ("tests/test_normal_form.py",),
    ),
    Mutant(
        "reduced-form-trivial-ignores-base",
        "src/singbraid/normal_form.py",
        "        return not self.powers and not self.bases[0]\n",
        "        return not self.powers\n",
        ("tests/test_normal_form.py",),
    ),
    Mutant(
        "best-slide-ignores-what-follows",
        "src/singbraid/normal_form.py",
        "    if len(entries) > i + 1:\n",
        "    if len(entries) > i:\n",
        ("tests/test_normal_form.py",),
    ),
    Mutant(
        "best-slide-drops-the-extra-c",
        "src/singbraid/normal_form.py",
        "                return k + sign\n",
        "                return k\n",
        ("tests/test_normal_form.py",),
    ),
    Mutant(
        "first-read-keeps-the-parsed-letters",
        "src/singbraid/words.py",
        "        return self._store(free_reduce(map(stored.letter_of.__getitem__, stored.tokens)))\n",
        "        return self._store(tuple(map(stored.letter_of.__getitem__, stored.tokens)))\n",
        ("tests/test_words.py::test_parsed_word_reduces_on_first_read_and_keeps_the_letters",),
    ),
    Mutant(
        "late-first-read-ignores-the-stored-letters",
        "src/singbraid/words.py",
        "        if stored.__class__ is not _Tokens:\n",
        "        if False:\n",
        ("tests/test_words.py::test_a_late_first_read_returns_the_letters_another_read_stored",),
    ),
    Mutant(
        "letter-counts-read-the-letters",
        "src/singbraid/words.py",
        "            return zip(stored.letter_of.values(), stored.counts.values())\n",
        "            return ((letter, 1) for letter in self.letters)\n",
        ("tests/test_words.py::test_sum_stages_reduce_no_word_they_refute",),
    ),
    Mutant(
        "built-letter-counts-drop-repeats",
        "src/singbraid/words.py",
        "        return _count_elements(counts := {}, stored) or counts.items()\n",
        "        return dict.fromkeys(stored, 1).items()\n",
        ("tests/test_normal_form.py::test_six_sums_count_each_distinct_letter_once",),
    ),
    Mutant(
        "first-pass-reads-each-token-once",
        "src/singbraid/words.py",
        "            return stored.tokens, stored.letter_of\n",
        "            return list(stored.counts), stored.letter_of\n",
        ("tests/test_normal_form.py::test_parsed_words_reduce_as_their_letters_do",),
    ),
    Mutant(
        "first-pass-reads-the-token-as-its-letter",
        "src/singbraid/normal_form.py",
        "        letter = key if letter_of is None else letter_of[key]\n",
        "        letter = key\n",
        ("tests/test_normal_form.py::test_parsed_words_reduce_as_their_letters_do",),
    ),
    Mutant(
        "braid-sums-drop-the-count",
        "src/singbraid/words.py",
        "            sigma_sum += exponent * n\n",
        "            sigma_sum += exponent\n",
        ("tests/test_words.py::test_exponent_sums",),
    ),
    Mutant(
        "token-cache-ignores-strands",
        "src/singbraid/words.py",
        "lambda token: _braid_letter(token, strands)",
        "lambda token: _braid_letter(token, 3)",
        ("tests/test_words.py::test_token_cache_key_holds_the_strand_count",),
    ),
    Mutant(
        "value-eq-across-classes",
        "src/singbraid/words.py",
        "        if other.__class__ is not self.__class__:\n            return NotImplemented\n",
        "",
        ("tests/test_values.py",),
    ),
    Mutant(
        "value-hash-drops-a-field",
        "src/singbraid/words.py",
        "        return hash(self._key(self))\n",
        "        return hash(self._key(self)[1:])\n",
        ("tests/test_values.py",),
    ),
    Mutant(
        "verdict-exit-status-reversed",
        "src/singbraid/cli.py",
        "    return 0 if holds else 1\n",
        "    return 1 if holds else 0\n",
        ("tests/test_cli.py::test_trivial", "tests/test_cli.py::test_equal"),
    ),
    Mutant(
        "printer-skips-free-reduction",
        "src/singbraid/normal_form.py",
        "        return SPWord._reduced(letters)\n",
        "        word = SPWord._parsed(letters)\n        word._store(tuple(letters))\n        return word\n",
        (
            "tests/test_printed_forms.py::test_hand_built_forms_print_freely_reduced",
            "tests/test_normal_form.py::test_canonical_display_compacts_c_powers",
        ),
    ),
    Mutant(
        "b3-matrix-sign",
        "src/singbraid/oracles.py",
        "            a, c = a - b * e, c - d * e\n",
        "            a, c = a + b * e, c + d * e\n",
        ("tests/test_oracles.py",),
    ),
)


def copy_tree(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    # tests/test_readme.py runs the README's library tour.
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, into / name)


def run_tests(root: Path, tests) -> tuple[bool, str]:
    """Run the tests in a copy; (passed, last line of pytest's output).  A
    run past ``TIMEOUT_S`` counts as failed."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines()
    return done.returncode == 0, lines[-1] if lines else done.stderr.strip()[-200:]


def main(names: list[str]) -> int:
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutants: {unknown}")
        return 2
    mutants = [known[name] for name in names] or list(MUTANTS)
    for mutant in mutants:
        count = (ROOT / mutant.module).read_text().count(mutant.old)
        if count != 1:
            print(f"{mutant.name}: its old text occurs {count} times in {mutant.module}, not once")
            return 2
    with tempfile.TemporaryDirectory() as scratch:
        clean = Path(scratch) / "clean"
        copy_tree(clean)
        tests = dict.fromkeys(test for mutant in mutants for test in mutant.tests)
        passed, summary = run_tests(clean, tests)
        if not passed:
            print(f"the named tests fail without any mutant: {summary}")
            return 2
        survivors = []
        for mutant in mutants:
            root = Path(scratch) / mutant.name
            copy_tree(root)
            module = root / mutant.module
            module.write_text(module.read_text().replace(mutant.old, mutant.new))
            start = time.perf_counter()
            passed, summary = run_tests(root, mutant.tests)
            verdict = "SURVIVED" if passed else "killed"
            print(f"{mutant.name}: {verdict} in {time.perf_counter() - start:.1f} s ({summary})")
            if passed:
                survivors.append(mutant.name)
            shutil.rmtree(root)
    if survivors:
        print(f"{len(survivors)} of {len(mutants)} mutants survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(mutants)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
