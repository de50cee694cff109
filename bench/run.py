"""Decision benchmark for singbraid: seeded word families, checked verdicts.

Usage, from the root of a checkout:

    python3 bench/run.py --workload short-mixed --seed 1 --seconds 10 --trace 0

Workloads are defined, with the reason for each, in ``workloads.py``.  The
load is a closed loop from one process with no threads: one caller parses
and decides a word, checks the verdict against the certificate, and only
then takes the next word.  Words of the workload's main size class and of its
large size class take turns, so that the large class gets 60% of the decide
time; the large class is only used for ``decide_growth``.  Fresh
interpreters for the set-up and CLI probes run one at a time.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` decides each
main-class word once untraced and once with spans around the calls into each
module, then reports per-layer metrics per decided word, and writes the
spans to ``.bench_out/trace-<workload>.jsonl``.

Every time is CPU time: of the deciding thread, of the set-up child, and of
each CLI child.  The program is single-threaded and CPU-bound, so this is its
wall time minus the time the host gave the CPU to someone else.  Each time is
then scaled to a fixed nominal machine speed (see ``Speed``), measured by a
reference computation that runs between the decisions.  Without both steps,
the same code on a shared virtual machine reads up to a third apart from one
run to the next.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the interpreter, commit, nproc, seed and sample counts.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import defaultdict, deque
from pathlib import Path

from spans import Tracer, self_times
from workloads import WORKLOADS, word_stream

# A run that has not finished after this many seconds is a failed run, so
# that a hang in the program cannot stall the caller.
DEADLINE_S = 150
SETUP_PROBES = 10
CLI_PROBES = 30
CHILD_TIMEOUT_S = 30
CLASSES = ("main", "large")
LARGE_SHARE = 0.6

# Fresh-interpreter set-up probe: import, then the first decision of a
# one-letter kernel word, which builds the Schreier transversal on the way.
SETUP_CHILD = """
import json, time
t0 = time.process_time()
import singbraid
t1 = time.process_time()
verdict = singbraid.is_trivial_sg3(singbraid.parse_braid_word("s1^2", 3))
t2 = time.process_time()
print(json.dumps({"import": t1 - t0, "first_call": t2 - t1, "verdict": verdict}))
"""


class Deadline(BaseException):
    """Raised by the alarm; not an Exception, so no word handler swallows it."""


class Run:
    """Counts of attempted and failed checks, with the first failures kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)
        return ok


def children_cpu() -> float:
    """CPU seconds used so far by the waited-for child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def reference_work() -> int:
    """A fixed piece of pure-Python work: integer arithmetic, small tuples
    merged on a stack, and tuple concatenation, as the engine does."""
    total = 0
    for i in range(5000):
        total += i * i % 7
    stack: list[tuple[int, int]] = []
    for i in range(1500):
        item = (i % 5, i % 3)
        if stack and stack[-1][0] == item[0]:
            stack[-1] = (item[0], stack[-1][1] + item[1])
        else:
            stack.append(item)
    joined: tuple = ()
    for j in range(0, len(stack), 50):
        joined = joined + tuple(stack[j:j + 50])
    return total + len(joined)


class Speed:
    """The machine's current speed, from ``reference_work`` run between
    decisions, used to scale CPU times to a fixed nominal speed.

    On a shared host the CPU time of the same work drifts by a quarter or
    more over tens of seconds, as other tenants load the core and its
    caches.  Every reported time is multiplied by NOMINAL_S over the median
    of the last few reference times, which cancels the part of that drift
    the reference work shares with the program.
    """

    NOMINAL_S = 0.0008  # about the median reference time on a 2-vCPU Xeon VM, Python 3.11
    EVERY_S = 0.02

    def __init__(self) -> None:
        self.recent: deque[float] = deque(maxlen=7)
        self.all: list[float] = []
        self.due = 0.0
        self.tick()

    def tick(self) -> None:
        """Run the reference work if the last run is EVERY_S old."""
        now = time.perf_counter()
        if now >= self.due:
            start = time.thread_time()
            reference_work()
            elapsed = time.thread_time() - start
            self.recent.append(elapsed)
            self.all.append(elapsed)
            self.due = now + self.EVERY_S

    def scale(self, cpu_seconds: float) -> float:
        return cpu_seconds * self.NOMINAL_S / statistics.median(self.recent)


class Probes:
    """Fresh-interpreter probes, run one at a time and spread evenly over
    the timed loop, so that they see the same machine as the decisions.

    Set-up probes time ``import singbraid`` and the first decision in a new
    interpreter.  CLI probes run ``python -m singbraid.cli trivial`` on
    short-mixed words and check the exit code and the output of each.
    """

    def __init__(self, root: Path, seed: int, run: Run, speed: Speed) -> None:
        self.root, self.run, self.speed = root, run, speed
        short = WORKLOADS["short-mixed"]
        self.cli_words = itertools.chain.from_iterable(
            zip(word_stream(short, "main", seed), word_stream(short, "large", seed))
        )
        self.imports: list[float] = []
        self.first_calls: list[float] = []
        self.cli: list[float] = []
        # Each kind at evenly spaced points of the loop, by fraction done.
        self.plan = sorted(
            [((i + 0.5) / SETUP_PROBES, self.setup) for i in range(SETUP_PROBES)]
            + [((i + 0.5) / CLI_PROBES, self.trivial) for i in range(CLI_PROBES)],
            key=lambda item: item[0],
        )
        self.next = 0
        # One discarded probe of each kind: the first may compile bytecode.
        self.setup(keep=False)
        self.trivial(keep=False)

    def due(self, progress: float) -> None:
        while self.next < len(self.plan) and self.plan[self.next][0] <= progress:
            self.plan[self.next][1]()
            self.next += 1

    def _child(self, *argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *argv], cwd=self.root, env=child_env(self.root),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )

    def setup(self, keep: bool = True) -> None:
        proc = self._child("-c", SETUP_CHILD)
        try:
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = proc.returncode == 0 and out["verdict"] is False
        except (ValueError, IndexError, KeyError):
            ok = False
        self.run.check(ok, f"setup probe: exit {proc.returncode}, {proc.stderr.strip()[-200:]}")
        if ok and keep:
            self.imports.append(self.speed.scale(out["import"]))
            self.first_calls.append(self.speed.scale(out["first_call"]))

    def trivial(self, keep: bool = True) -> None:
        word = next(self.cli_words)
        start = children_cpu()
        proc = self._child("-m", "singbraid.cli", "trivial", "-n", "3", word.text)
        elapsed = children_cpu() - start
        expected = (0, "trivial\n") if word.trivial else (1, "nontrivial\n")
        ok = self.run.check(
            (proc.returncode, proc.stdout) == expected,
            f"cli {word.text!r}: exit {proc.returncode}, {proc.stdout!r}, {proc.stderr[-200:]!r}",
        )
        if ok and keep:
            self.cli.append(self.speed.scale(elapsed))


def decider(sb, group: str):
    """The timed unit: parse the text, then decide it.  Names are looked up
    at call time, so a traced run sees the wrapped functions."""
    if group == "sp3":
        return lambda text: sb.is_trivial_sp3(sb.parse_sp_word(text))
    return lambda text: sb.is_trivial_sg3(sb.parse_braid_word(text, 3))


def decide_checked(decide, word, run: Run) -> float:
    """Seconds taken by one decision; a wrong verdict or an exception fails."""
    start = time.thread_time()
    try:
        verdict = decide(word.text)
    except Exception:
        elapsed = time.thread_time() - start
        run.check(False, f"{word.family} raised: {traceback.format_exc(limit=3)[-300:]}")
        return elapsed
    elapsed = time.thread_time() - start
    run.check(verdict == word.trivial, f"{word.family} [{word.certificate}] {word.text[:80]!r}: got {verdict}")
    return elapsed


def warm_caches(sb, decide, workload, seed: int) -> None:
    """Fill the lazy caches (the Schreier transversal and the ambient words
    of all 24 Schreier generators) and warm the workload's code paths before
    anything is timed.  Random short kernel words reach every generator."""
    kernel = word_stream(WORKLOADS["short-mixed"], "large", -1 - seed)
    for _ in range(300):
        sb.is_trivial_sg3(sb.parse_braid_word(next(kernel).text, 3))
    for size_class in CLASSES:
        stream = word_stream(workload, size_class, -1 - seed)
        for _ in range(len(workload.families)):
            decide(next(stream).text)


def percentile(values: list[float], pct: float) -> float:
    return statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]


def growth(times, sizes, families) -> float:
    """Mean over families of the slope of log(median decide time) against
    log(median input size) between the main and the large class.  Taking
    medians per family keeps the family mix from moving the result."""
    slopes = []
    for family in families:
        t_main, t_large = (statistics.median(times[c, family]) for c in CLASSES)
        n_main, n_large = (statistics.median(sizes[c, family]) for c in CLASSES)
        slopes.append(math.log(t_large / t_main) / math.log(n_large / n_main))
    return statistics.fmean(slopes)


def end_to_end(sb, workload, args, root: Path, run: Run, meta: dict) -> dict:
    decide = decider(sb, workload.group)
    speed = Speed()
    probes = Probes(root, args.seed, run, speed)
    streams = {c: word_stream(workload, c, args.seed) for c in CLASSES}
    families = [f.__name__ for f in workload.families]
    # Times and sizes by (class, family), in arrays, so that the benchmark's
    # own memory does not grow with the number of words decided.
    times = {(c, f): array("d") for c in CLASSES for f in families}
    sizes = {(c, f): array("d") for c in CLASSES for f in families}
    spent = dict.fromkeys(CLASSES, 0.0)
    decided = dict.fromkeys(CLASSES, 0)
    # Past the deadline, go on until every family has two words in each class.
    enough = 2 * len(families)
    begin = time.perf_counter()
    while (progress := (time.perf_counter() - begin) / args.seconds) < 1 or min(decided.values()) < enough:
        probes.due(progress)
        speed.tick()
        # The large class gets 60% of the decide time: it has the fewest words.
        size_class = "main" if spent["main"] * LARGE_SHARE <= spent["large"] * (1 - LARGE_SHARE) else "large"
        word = next(streams[size_class])
        elapsed = speed.scale(decide_checked(decide, word, run))
        spent[size_class] += elapsed
        decided[size_class] += 1
        times[size_class, word.family].append(elapsed)
        sizes[size_class, word.family].append(word.size)

    probes.due(1)
    main_times = [t for f in families for t in times["main", f]]
    tail = percentile(main_times, workload.tail_pct)
    meta.update(
        main_samples=decided["main"],
        large_samples=decided["large"],
        tail_percentile=workload.tail_pct,
        tail_samples_beyond=sum(t > tail for t in main_times),
        main_size_median=statistics.median(s for f in families for s in sizes["main", f]),
        large_size_median=statistics.median(s for f in families for s in sizes["large", f]),
        size_unit=workload.size_unit,
        setup_probes=len(probes.imports),
        cli_probes=len(probes.cli),
        reference_ms=statistics.median(speed.all) * 1e3,
    )
    return {
        "decide_words_per_s": (decided["main"] / spent["main"], "1/s"),
        "decide_p50_ms": (statistics.median(main_times) * 1e3, "ms"),
        "decide_tail_ms": (tail * 1e3, "ms"),
        "decide_growth": (growth(times, sizes, families), "slope"),
        "cli_trivial_ms": (statistics.median(probes.cli) * 1e3, "ms"),
        "setup_s": (statistics.median(a + b for a, b in zip(probes.imports, probes.first_calls)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _stable_letters(word) -> int:
    return sum(abs(l.exponent) for l in word.letters if l.name == "b12")


# Counts recorded at the same boundaries as the spans: span name -> function
# of (args, result) yielding (metric, value).
COUNTERS = {
    "words.parse_braid_word": lambda args, r: (
        ("words.unit_letters_in", sum(abs(l.exponent) for l in r.letters)),
        ("words.syllables_in", len(r.letters)),
    ),
    "rewriting.rewrite_tau": lambda args, r: (("rewriting.schreier_factors", len(r.factors)),),
    "sp3.rewrite_to_sp3": lambda args, r: (("sp3.letters_out", len(r.letters)),),
    "normal_form.eliminate_a12": lambda args, r: (("normal_form.residual_letters", len(r[1].letters)),),
    "normal_form.britton_reduce": lambda args, r: (
        ("normal_form.stable_in", _stable_letters(args[0])),
        ("normal_form.stable_out", r.stable_letter_count()),
    ),
    "oracles.sg3_necessary_trivial": lambda args, r: (("oracles.refuted_frac", 0 if r else 1),),
}

# Per-layer time metrics: metric -> span name whose inclusive time it sums,
# over the spans under the decide roots (oracle spans are counted apart).
SPAN_TIMES = {
    "words.parse_ms": "words.parse_braid_word",
    "permutations.pi_ms": "permutations.pi",
    "rewriting.rewrite_tau_ms": "rewriting.rewrite_tau",
    "sp3.rewrite_to_sp3_ms": "sp3.rewrite_to_sp3",
    "sp3.parse_sp_word_ms": "sp3.parse_sp_word",
    "normal_form.eliminate_a12_ms": "normal_form.eliminate_a12",
    "normal_form.britton_reduce_ms": "normal_form.britton_reduce",
}
LAYERS = ("words", "permutations", "rewriting", "sp3", "normal_form")
COUNTS = (
    "words.unit_letters_in",
    "words.syllables_in",
    "rewriting.schreier_factors",
    "sp3.letters_out",
    "normal_form.residual_letters",
    "normal_form.stable_in",
    "normal_form.stable_out",
)


def layer_metrics(spans, counts, words: int, scales=None) -> dict:
    """Per decided word: inclusive span times, self time per layer, counts.

    ``scales[request]`` is the speed factor of the word the span belongs to.
    """
    selfs = self_times(spans)
    root = []
    for span in spans:
        root.append(root[span.parent] if span.parent >= 0 else span.name)
    inclusive: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for span, own, top in zip(spans, selfs, root):
        scale = scales[span.request] if scales else 1.0
        if top == "bench.decide":
            inclusive[span.name] += (span.end - span.start) * scale
            layer_self[span.name.split(".")[0]] += own * scale
        elif span.name == "oracles.sg3_necessary_trivial":
            inclusive[span.name] += (span.end - span.start) * scale
    per_word_ms = lambda ns: ns / 1e6 / words  # noqa: E731
    metrics = {name: (per_word_ms(inclusive[span]), "ms") for name, span in SPAN_TIMES.items()}
    metrics["sp3.express_self_ms"] = (
        per_word_ms(inclusive["sp3.rewrite_to_sp3"] - inclusive["rewriting.rewrite_tau"]), "ms")
    metrics["oracles.necessary_trivial_ms"] = (per_word_ms(inclusive["oracles.sg3_necessary_trivial"]), "ms")
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (per_word_ms(layer_self[layer]), "ms")
    for name in COUNTS:
        metrics[name] = (sum(counts.get(name, ())) / words, "count")
    refuted = counts.get("oracles.refuted_frac", ())
    metrics["oracles.refuted_frac"] = (sum(refuted) / len(refuted) if refuted else 0.0, "frac")
    return metrics


def per_layer(sb, workload, args, root: Path, run: Run, meta: dict) -> dict:
    decide = decider(sb, workload.group)
    speed = Speed()
    probes = Probes(root, args.seed, run, speed)
    tracer = Tracer(COUNTERS)
    # The oracle step parses with the unwrapped parser, so that the words
    # layer counts the decisions only.
    parse = sb.parse_braid_word
    stream = word_stream(workload, "main", args.seed)
    untraced = traced = 0.0
    scales: list[float] = []
    begin = time.perf_counter()
    while (progress := (time.perf_counter() - begin) / args.seconds) < 1 or not scales:
        probes.due(progress)
        speed.tick()
        word = next(stream)
        tracer.request = len(scales)
        scales.append(speed.scale(1.0))
        # Alternate which of the pair runs first, so that neither side
        # always finds the caches the other left warm.
        for traced_pass in (False, True) if tracer.request % 2 else (True, False):
            if traced_pass:
                with tracer.installed():
                    traced += tracer.span("bench.decide", decide_checked, decide, word, run)
            else:
                untraced += decide_checked(decide, word, run)
        if workload.group == "sg3":
            # The oracles are off the decision path: each word is checked by
            # them apart, and they may only refute nontrivial words.
            with tracer.installed():
                try:
                    necessary = tracer.span("bench.oracle", lambda: sb.sg3_necessary_trivial(parse(word.text, 3)))
                except Exception:
                    necessary = None
            run.check(necessary is not None and (necessary or not word.trivial),
                      f"oracle on {word.text[:80]!r}: {necessary}")

    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"trace-{workload.name}.jsonl")
    probes.due(1)
    meta.update(traced_words=len(scales), spans=len(tracer.spans), setup_probes=len(probes.imports))
    metrics = layer_metrics(tracer.spans, tracer.counts, len(scales), scales)
    metrics["setup.import_ms"] = (statistics.median(probes.imports) * 1e3, "ms")
    metrics["setup.first_call_ms"] = (statistics.median(probes.first_calls) * 1e3, "ms")
    metrics["trace.overhead_frac"] = (traced / untraced - 1, "frac")
    metrics["error_rate"] = (run.failed / run.attempted, "frac")
    return metrics


def commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def _alarm(signum, frame):
    raise Deadline()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "singbraid" / "__init__.py").is_file():
        print(f"error: no src/singbraid under {root}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[args.workload]
    meta = {
        "python": platform.python_version(),
        "commit": commit(root),
        "nproc": os.cpu_count(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    # One CPU for the run and its children: the reference work in ``Speed``
    # then measures the CPU that the decisions and the probes run on.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    meta["cpu"] = cpu
    run = Run()
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(DEADLINE_S)
    try:
        import singbraid as sb

        warm_caches(sb, decider(sb, workload.group), workload, args.seed)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(sb, workload, args, root, run, meta)
    except (Deadline, subprocess.TimeoutExpired, statistics.StatisticsError) as error:
        # A hang, or no successful probe or decision to take a median of.
        print(f"error: run did not finish: {type(error).__name__}: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": run.attempted + 1, "failed": run.failed + 1, "metrics": {}}))
        return 1
    finally:
        signal.alarm(0)
    meta["failures"] = run.failures
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
