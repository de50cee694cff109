"""Resource bounds for hostile CLI calls.

Each call runs in a child process of its own, limited to 1 GiB of address
space and 30 s of CPU time.  The limits are set in the child only, between
fork and exec, so nothing outside the test changes.  The child's peak
resident set and CPU time come from ``os.wait4`` on that child alone:
``RUSAGE_CHILDREN`` holds the largest peak of every child waited for so
far, so it cannot tell one call from another.

Each call must exit with its pinned code, print its pinned number of bytes
and write no traceback; an exit 2 writes exactly one ``error:`` line.  Its
peak resident set above that of a bare ``import singbraid.cli`` must stay
under a bound written here: today's reading plus a stated margin.
"""

import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MB = 1 << 20
ADDRESS_SPACE_BYTES = 1 << 30
CPU_SECONDS = 30

# Peak resident set above a bare import may grow by this share of today's
# reading plus this many MB before a call fails: room for other Python
# versions and allocators, while a doubling of the larger peaks still fails.
RSS_MARGIN_SHARE = 0.5
RSS_MARGIN_MB = 8

HOSTILE_NF = "a12^131070 b12 a13 b12^-1 a12^-131070 b13"
# 20,001 tokens of exponent +-1 in 90,002 bytes, under the 128 KiB that
# Linux allows one argument: crossing sum 1, so the sums refute it.
LONG_REFUTED = "s1 t2 s2^-1 t1^-1 " * 5000 + "s1"
# 20,000 tokens in 110,000 bytes with six zero sums: the reducer reads the
# tokens and cancels every pair.
LONG_CANCELLING = "a13 a13^-1 " * 10000
# 20,000 tokens in 95,000 bytes with zero sums and a trivial projection: pi
# and the walk read the tokens unreduced, and the rewrite cancels them.
LONG_CANCELLING_BRAID = "s1 t1 t1^-1 s1^-1 " * 5000
# 400,004 and 400,006 unit letters as written, which reduce to 4 and 6.
PAST_THE_BOUND_BRAID = "s1^200000 s1^-200000 s1 t1 s1^-1 t1^-1"
PAST_THE_BOUND_SP = "a12^200000 a12^-200000 b12 a13 a23 b12^-1 a23^-1 a13^-1"

# name: (argv, exit code, stdout bytes, MB of peak resident set above a bare
# import, read on Python 3.11 at a bare-import peak of 14.5 MB; 3.13 read
# within 3.6 MB of these).
CALLS = {
    "trivial-one-letter": (["trivial", "s1"], 1, 11, 0.1),
    "hostile-exponent": (["trivial", "s1^131070 t2 s1^-131070 t2^-1"], 1, 11, 2.7),
    "hostile-singular-exponent": (["trivial", "t1^65536 t2^65536 t1^-65536 t2^-65536"], 1, 11, 22.8),
    "rewrite-crossing-power": (["rewrite", "t1^131072"], 0, 851_970, 16.5),
    "hostile-nf": (["nf", HOSTILE_NF], 0, 2_883_565, 27.0),
    "conj-by-a-power": (["conj", "-g", "t1^131072", "a13 b23 a23 b13"], 0, 1_572_889, 25.9),
    "parse-over-the-limit": (["parse", "s1^1234567"], 2, 0, 0.1),
    "long-refuted-word": (["trivial", LONG_REFUTED], 1, 11, 0.0),
    "long-cancelling-nf": (["nf", LONG_CANCELLING], 0, 8, 0.2),
    "long-cancelling-trivial": (["trivial", LONG_CANCELLING_BRAID], 0, 8, 0.2),
    # Two syllables at the unit-letter limit that cancel: the walk emits
    # their 131,070 factors unreduced, and the rewrite cancels them.
    "cancelling-exponents-at-the-limit": (["trivial", "s1^131070 s1^-131070"], 0, 8, 0.2),
    # Past the parse bound as written, so the parser reduces the letters and
    # the decision reads them as a built word's.
    "trivial-past-the-parse-bound": (["trivial", PAST_THE_BOUND_BRAID], 0, 8, 0.1),
    "nf-past-the-parse-bound": (["nf", PAST_THE_BOUND_SP], 0, 8, 0.1),
}
# The output of each call whose bytes are pinned as well as counted.
STDOUT = {
    "long-cancelling-nf": b"d^0 | 1\n",
    "long-cancelling-trivial": b"trivial\n",
    "cancelling-exponents-at-the-limit": b"trivial\n",
    "trivial-past-the-parse-bound": b"trivial\n",
    "nf-past-the-parse-bound": b"d^0 | 1\n",
}


def limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))


def run_child(*args: str) -> tuple[int, bytes, bytes, int, float]:
    """(exit code, stdout, stderr, peak resident bytes, CPU seconds) of one
    ``python -W error`` child.  Its output goes to files, not pipes, so the
    child never waits on a full pipe while the test waits on the child."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(
            [sys.executable, "-W", "error", *args], stdout=out, stderr=err, env=env, preexec_fn=limit_child
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (
            proc.returncode,
            out.read(),
            err.read(),
            usage.ru_maxrss * 1024,  # ru_maxrss counts KiB on Linux
            usage.ru_utime + usage.ru_stime,
        )


@pytest.fixture(scope="module")
def bare_import_rss() -> int:
    code, out, err, rss, _ = run_child("-c", "import singbraid.cli")
    assert (code, out, err) == (0, b"", b"")
    return rss


@pytest.mark.parametrize("name", CALLS)
def test_hostile_call_stays_in_bounds(name, bare_import_rss):
    argv, exit_code, stdout_bytes, rss_mb = CALLS[name]
    code, out, err, rss, cpu = run_child("-m", "singbraid.cli", *argv)
    above_mb = (rss - bare_import_rss) / MB
    report = f"exit {code}, {len(out)} B, {above_mb:.1f} MB above a bare import, {cpu:.2f} s CPU"
    assert (code, len(out)) == (exit_code, stdout_bytes), report
    assert out == STDOUT.get(name, out), out
    assert b"Traceback" not in err, err[-500:]
    if code == 2:
        assert err.startswith(b"error: ") and err.count(b"\n") == 1 and err.endswith(b"\n"), err
    assert above_mb <= rss_mb * (1 + RSS_MARGIN_SHARE) + RSS_MARGIN_MB, report
