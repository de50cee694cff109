import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from singbraid.cli import EXIT_CLOSED_STDOUT, main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse(capsys):
    code, out, _ = run(capsys, "parse", "-n", "3", "s1 s1^-1 t2")
    assert code == 0 and out == "t2\n"


def test_parse_reports_bad_token(capsys):
    code, out, err = run(capsys, "parse", "-n", "3", "s9")
    assert code == 2 and out == "" and "s9" in err


def test_pi_cycles_and_one_line(capsys):
    code, out, _ = run(capsys, "pi", "-n", "3", "s1 t2")
    assert code == 0 and out == "(1 3 2)\n"
    code, out, _ = run(capsys, "pi", "-n", "3", "--one-line", "s1 t2")
    assert code == 0 and out == "[3,1,2]\n"


def test_gens_table(capsys):
    code, out, _ = run(capsys, "gens", "-n", "3")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "rep\tletter\tambient\ttrivial"
    assert len(lines) == 25
    assert "1\tt1\tt1 s1^-1\tno" in lines
    assert "1\ts1\t1\tyes" in lines
    assert "s2 s1\ts1\ts2 s1^2 s2^-1\tno" in lines


def test_closed_stdout_ends_without_a_traceback():
    # gens -n 6 prints 7,201 lines (650 KiB), more than a pipe buffers: the
    # reader takes one line and closes the pipe, and a later write finds it
    # closed.
    proc = subprocess.Popen(
        [sys.executable, "-W", "error", "-m", "singbraid.cli", "gens", "-n", "6"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    try:
        assert proc.stdout.readline() == b"rep\tletter\tambient\ttrivial\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == EXIT_CLOSED_STDOUT
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()
    assert EXIT_CLOSED_STDOUT not in range(4)


@pytest.mark.parametrize("strands", ["0", "1", "7"])
def test_gens_on_an_unsupported_strand_count_prints_nothing(capsys, strands):
    code, out, err = run(capsys, "gens", "-n", strands)
    assert code == 2 and out == ""
    assert err == f"error: transversal supported for 2 <= n <= 6, got {strands}\n"


@pytest.mark.parametrize(
    "strands, digest",
    [
        ("4", "d4d9ca500b92aae3f8d92fd9920858d4dbc07231ae4ecd80e1e3c6eed765526d"),
        ("5", "827b046dbbf6d1e4f1e28ed601f71691d4527c49f50873a2ae84587f635954f3"),
        ("6", "8f0de5b570c891f818f3e683c6de065e006f3286a2dc354a48b219c789418815"),
    ],
)
def test_gens_output_is_pinned(capsys, strands, digest):
    # n = 2 and 3 are pinned row by row in the acceptance suite.
    code, out, _ = run(capsys, "gens", "-n", strands)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_rewrite(capsys):
    code, out, _ = run(capsys, "rewrite", "s1^2")
    assert code == 0 and out == "a12\n"
    code, out, _ = run(capsys, "rewrite", "t1 s1^-1")
    assert code == 0 and out == "b12 a12^-1\n"
    code, _, err = run(capsys, "rewrite", "s1")
    assert code == 2 and "projection" in err


def test_nf(capsys):
    code, out, _ = run(capsys, "nf", "a12 a13 a23")
    assert code == 0 and out == "d^1 | 1\n"
    code, out, _ = run(capsys, "nf", "b12^-1 a13 b12")
    assert code == 0 and out == "d^0 | b12^-1 a13 b12\n"
    code, out, _ = run(capsys, "nf", "--canonical", "a13 a23 b12 a23^-1 a13^-1")
    assert code == 0 and out == "d^0 | b12\n"


def test_nf_rejects_braid_letters(capsys):
    code, _, err = run(capsys, "nf", "t1")
    assert code == 2 and "t1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("trivial", "s1^1000000000 t2 s1^-1000000000 t2^-1"),
        ("nf", "a12^1000000000"),
        ("conj", "-g", "t1^1000000000", "a12"),
        ("trivial", "s1^" + "9" * 5000 + " t1"),
        ("trivial", "s" + "1" * 5000),
        ("pi", "-n", "262145", "1"),
        ("parse", "-n", "262145", "1"),
    ],
)
def test_oversized_words_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "limit" in err


def test_pi_on_many_strands_is_linear(capsys):
    # 20,000 letters on 262,144 strands: rising runs of odd-exponent letters
    # on strands 1..12,001 and 200,000..204,000, each a cycle of its strands,
    # with even-exponent letters between that move nothing.  Composing a
    # permutation of all strands per letter took most of an hour here.
    strands = 2**18
    tokens = []
    for start, count in ((1, 12_000), (200_000, 4_000)):
        for i in range(start, start + count):
            tokens.append(f"{'st'[i % 2]}{i}^{(-1, 3)[i % 3 == 0]}")
            if i % 4 == 0:
                tokens.append(f"t{(i * 7919) % (strands - 1) + 1}^-2")
    assert len(tokens) == 20_000
    started = time.perf_counter()
    code, out, _ = run(capsys, "pi", "-n", str(strands), " ".join(tokens))
    assert time.perf_counter() - started < 30
    cycles = [(1, 12_001), (200_000, 204_000)]
    expected = []
    point = 1
    for first, last in cycles:
        expected.extend(f"({p})" for p in range(point, first))
        expected.append("(" + " ".join(map(str, [first, *range(last, first, -1)])) + ")")
        point = last + 1
    expected.extend(f"({p})" for p in range(point, strands + 1))
    assert code == 0 and out == "".join(expected) + "\n"


def test_conj_is_linear_in_the_exponent(capsys):
    # t1^-e w t1^e is rewritten in one walk, so the exponent limit costs
    # about a second; the output has more than 2^19 letters.
    started = time.perf_counter()
    code, out, _ = run(capsys, "conj", "-g", "t1^262144", "a13 b23 a23 b13")
    assert time.perf_counter() - started < 30
    assert code == 0 and " b12^-1 a13 b23 a23 b13 b12 " in out and len(out.split()) > 2**19


def test_trivial(capsys):
    code, out, _ = run(capsys, "trivial", "-n", "3", "s1 t1 s1^-1 t1^-1")
    assert code == 0 and out == "trivial\n"
    code, out, _ = run(capsys, "trivial", "-n", "3", "t1 t2 t1 t2^-1 t1^-1 t2^-1")
    assert code == 1 and out == "nontrivial\n"
    code, _, err = run(capsys, "trivial", "-n", "4", "s1")
    assert code == 2 and "n = 3" in err


def test_equal(capsys):
    code, out, _ = run(capsys, "equal", "a12 b13 a12^-1", "a23^-1 b13 a23")
    assert code == 0 and out == "equal\n"
    code, out, _ = run(capsys, "equal", "b12", "b13")
    assert code == 1 and out == "not equal\n"


def test_conj(capsys):
    code, out, _ = run(capsys, "conj", "-g", "s1", "a23")
    assert code == 0 and out == "a12^-1 a23^-1 a13 a23 a12\n"
    code, out, _ = run(capsys, "conj", "-g", "s1^-1", "a13")
    assert code == 0 and out == "a23\n"
    code, out, _ = run(capsys, "conj", "-g", "t1", "b23")
    assert code == 0 and out == "b12^-1 a23^-1 b13 a23 b12\n"
    code, _, err = run(capsys, "conj", "-g", "s1 s2", "a23")
    assert code == 2 and "single generator" in err


def test_oracle(capsys):
    code, out, _ = run(capsys, "oracle", "s1 t1 s1^-1 t1^-1")
    assert code == 0
    lines = dict(line.split("\t") for line in out.splitlines())
    assert lines["projection"] == "trivial"
    assert lines["crossing-sum"] == "0"
    assert lines["singular-sum"] == "0"
    assert lines["necessary-trivial"] == "yes"
    code, out, _ = run(capsys, "oracle", "t1 s1^-1")
    lines = dict(line.split("\t") for line in out.splitlines())
    assert lines["singular-sum"] == "1"
    assert lines["necessary-trivial"] == "no"


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "--all")
    lines = out.splitlines()
    assert code == 0
    assert sum(line.startswith("PASS") for line in lines) == 81
    assert lines[-1] == "81/81 checks passed"


@pytest.mark.parametrize(
    "flag,count",
    [("--rs", 30), ("--theorem1", 8), ("--prop41", 24), ("--table", 19)],
)
def test_verify_subsets(capsys, flag, count):
    code, out, _ = run(capsys, "verify", flag)
    lines = out.splitlines()
    assert code == 0
    assert sum(line.startswith("PASS") for line in lines) == count
    assert lines[-1] == f"{count}/{count} checks passed"


def test_verify_default_runs_everything(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0 and out.splitlines()[-1] == "81/81 checks passed"


def test_verify_all_output_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--all")
    digest = "381b35c28a0cc8d07211a0610458d709d82767a08f3ae56b8de18e4b59a6b948"
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_flags_print_their_slice_of_all(capsys):
    # Each line reads "PASS <group> <label>"; a flag prints the lines of its
    # group, in the order of --all, and its own count.
    body = run(capsys, "verify", "--all")[1].splitlines()[:-1]
    slices = []
    for flag, group in [
        ("--rs", "rewritten-relators"),
        ("--theorem1", "presentation-relators"),
        ("--prop41", "conjugation-rules"),
        ("--table", "expression-table"),
    ]:
        code, out, _ = run(capsys, "verify", flag)
        lines = out.splitlines()
        expected = [line for line in body if line.split()[1] == group]
        assert code == 0 and lines[:-1] == expected
        assert lines[-1] == f"{len(expected)}/{len(expected)} checks passed"
        slices += expected
    assert slices == body


def test_verify_failure_exits_3(capsys, monkeypatch):
    from singbraid import sp3 as sp3_module
    from singbraid.sp3 import parse_sp_word

    corrupted = dict(sp3_module.ACTION_TABLES["s2"])
    corrupted["a13"] = parse_sp_word("a23")
    monkeypatch.setitem(sp3_module.ACTION_TABLES, "s2", corrupted)
    code, out, _ = run(capsys, "verify", "--prop41")
    assert code == 3
    assert "FAIL conjugation-rules a13^s2 [a12 vs a23]" in out.splitlines()
    assert out.splitlines()[-1] == "23/24 checks passed"


def test_output_is_deterministic(capsys):
    first = run(capsys, "verify", "--all")
    second = run(capsys, "verify", "--all")
    assert first == second
    first = run(capsys, "gens", "-n", "4")
    second = run(capsys, "gens", "-n", "4")
    assert first == second
