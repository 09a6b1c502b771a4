#!/usr/bin/env python3
"""Benchmark of the collapse-lab command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from its `src/`.
Each workload is one `collapse-lab` subcommand run as a user runs it: a
separate `python -m collapse_lab` process, process pool included, one
invocation at a time from this process (closed loop).  `--seed` becomes the
CLI's `--seed`, so the same seed gives the same graphs and trees.

`--trace 0` repeats the invocation until `--seconds` have passed and reports
medians of wall time, CPU time of the process tree and peak RSS, plus the
median set-up time (interpreter start, CLI import, `build_parser()`) measured
between the invocations.  The host's speed drifts by up to 2x over minutes,
so before each invocation the fixed program reference.py runs with the same
number of processes, and each timed figure is multiplied by REF_S / (that
reference's wall time): times are reported at a fixed reference speed.  Raw
seconds are kept in the results file as `raw.*`.  A failed reference run is
not the program's failure: its repeat is discarded and run again.

`--trace 1` runs the same argv in this process with `--threads 1`, once plain
and once with layer spans (see tracer.py), in alternating pairs until
`--seconds` have passed, and reports per-layer medians.  One untraced
subprocess run supplies the body the traced run must reproduce.

Every invocation's output is checked: stdout minus the measured
`wall_time_ms` column must hash to the digest pinned for (workload, seed) in
digests.json, be identical across repeats, and its summary must agree with
the closed-form theory within tolerances a correct program exceeds with
probability below 1e-6.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; a table with quartiles and
sample counts goes to stderr, and all samples plus the environment go to
`.bench_results/`.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

MIN_REPS = 3
CHILD_TIMEOUT_S = 60.0
SETUP_CODE = "import collapse_lab.experiments_cli as cli; cli.build_parser()"
# Nominal wall time of reference.py by worker count, near its median on the
# machine that recorded baseline.json.  Timed figures are reported at the
# speed where reference.py takes this long.  cpu_s is scaled by the
# reference's wall time too: on that machine the program's own CPU time rose
# with it (correlation 0.65-0.75 per workload, so slowdowns were not pure
# steal), while the reference's CPU/wall ratio ranged from 0.85 to 1.7.  Over
# the two ten-seed sets in baseline.json, cpu_s spreads were 0.02-0.11 scaled
# by wall time and 0.04-0.16 scaled by the reference's CPU time.
REF_S = {1: 0.4, 2: 0.5}
MAX_REF_FAILURES = 3

# Two-sided tails of these widths are below 1e-6 for a correct program.
Z_CORE = 6.0  # normal tail ~2e-9, with sigma taken 1.4x above its measured value
Z_TREE = 5.5  # six independent rows, ~4e-8 each
Z_PAIRS = 6.0  # variance bound 2x the Poisson mean covers edges counted twice
# Per-trial sd of the core fraction is K/sqrt(n): 80 trials at n = 5e4, c = 1.5
# gave K = 1.16; the check uses K = 1.6.  Finite-n bias stays under 20/n.
CORE_SD_K = 1.6
CORE_BIAS_N = 20.0


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # subcommand and flags, without --seed and --threads
    threads: int

    def flag(self, name: str) -> str:
        return self.argv[self.argv.index(name) + 1]

    def command(self, seed: int, threads: int | None = None) -> list[str]:
        """CLI argv; threads default to the workload's, capped at the CPU count."""
        threads = min(self.threads, nproc()) if threads is None else threads
        return [*self.argv, "--seed", str(seed), "--threads", str(threads)]


# Why each workload was chosen is stated in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("collapse-phases", ("collapse", "--n", "50000", "--c", "1.5", "--trials", "4"), 2),
        Workload(
            "collapse-epoch2",
            ("collapse", "--n", "50000", "--c", "1.5", "--t", "0", "--trials", "4"),
            1,
        ),
        Workload(
            "phase-sparse",
            ("phase-transition", "--side", "sparse", "--lam", "1.0", "--n", "100000", "--trials", "2"),
            2,
        ),
        Workload("tree-gamma", ("tree", "--c", "1.5", "--t", "6", "--trials", "4000"), 1),
    )
}


# -- output checks ------------------------------------------------------------------


def strip_wall_time(body: str) -> str:
    """The body without the measured wall_time_ms column (CSV) or key (JSON)."""
    if body.lstrip().startswith(("[", "{")):

        def drop(obj):
            if isinstance(obj, dict):
                return {k: drop(v) for k, v in obj.items() if k != "wall_time_ms"}
            if isinstance(obj, list):
                return [drop(v) for v in obj]
            return obj

        return json.dumps(drop(json.loads(body)))
    lines = body.split("\n")
    if not lines[0].endswith(",wall_time_ms"):
        return body
    return "\n".join(line.rsplit(",", 1)[0] if line else line for line in lines)


def digest(body: str) -> str:
    return hashlib.sha256(strip_wall_time(body).encode()).hexdigest()


def gamma_sequence(c: float, t: int) -> list[float]:
    seq = [0.0]
    for _ in range(t):
        seq.append(math.exp(-c * (1.0 - seq[-1])))
    return seq


def core_fraction(c: float) -> float:
    g = gamma_sequence(c, 5000)[-1]
    return (1.0 - g) * (1.0 - c * g)


def ordered_pairs(n: int, p: float) -> float:
    return n * (n - 1) * p * (1.0 - p * (1.0 - p)) ** (n - 2)


def _summary(stderr: str) -> dict[str, float]:
    """key=value tokens of the CLI's stderr summary."""
    out = {}
    for token in stderr.split():
        key, sep, value = token.partition("=")
        if sep:
            try:
                out[key] = float(value)
            except ValueError:
                pass
    return out


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def check_output(w: Workload, stdout: str, stderr: str) -> list[str]:
    """Problems with one invocation's output; empty when it is correct."""
    try:
        rows = list(csv.DictReader(io.StringIO(stdout)))
        summary = _summary(stderr)
        trials = int(w.flag("--trials"))
        if w.argv[0] == "tree":
            return _check_tree(w, rows, trials)
        if len(rows) != trials or [int(r["trial_index"]) for r in rows] != list(range(trials)):
            return [f"expected {trials} rows in trial order"]
        if w.argv[0] == "collapse":
            return _check_collapse(w, rows, summary)
        return _check_pairs(w, rows, summary)
    except (KeyError, ValueError) as exc:
        return [f"unparseable output: {exc!r}"]


def _check_collapse(w: Workload, rows: list[dict], summary: dict) -> list[str]:
    n, c = int(w.flag("--n")), float(w.flag("--c"))
    mean_frac = sum(int(r["core_f0"]) for r in rows) / len(rows) / n
    expected = core_fraction(c)
    tol = Z_CORE * CORE_SD_K / math.sqrt(n * len(rows)) + CORE_BIAS_N / n
    problems = []
    if not _close(summary["mean_core_frac"], mean_frac):
        problems.append("mean_core_frac disagrees with the core_f0 column")
    if not _close(summary["predicted_core_f0"], expected * n):
        problems.append(f"predicted_core_f0 {summary['predicted_core_f0']} != {expected * n}")
    if abs(mean_frac - expected) > tol:
        problems.append(f"core fraction {mean_frac} is {expected} +- {tol} by theory")
    return problems


def _check_pairs(w: Workload, rows: list[dict], summary: dict) -> list[str]:
    n = int(w.flag("--n"))
    p = float(w.flag("--lam")) * math.log(n) / n
    mean_pairs = sum(int(r["dominated_pairs"]) for r in rows) / len(rows)
    expected = ordered_pairs(n, p)
    tol = Z_PAIRS * math.sqrt(2.0 * expected / len(rows))
    problems = []
    if not _close(summary["mean_ordered_pairs"], mean_pairs):
        problems.append("mean_ordered_pairs disagrees with the dominated_pairs column")
    if not _close(summary["expected_ordered_pairs"], expected):
        problems.append(f"expected_ordered_pairs {summary['expected_ordered_pairs']} != {expected}")
    if abs(mean_pairs - expected) > tol:
        problems.append(f"mean pairs {mean_pairs} is {expected} +- {tol} by theory")
    return problems


def _check_tree(w: Workload, rows: list[dict], trials: int) -> list[str]:
    c, depth = float(w.flag("--c")), int(w.flag("--t"))
    gammas = gamma_sequence(c, depth)
    if [int(r["t"]) for r in rows] != list(range(1, depth + 1)):
        return [f"expected rows t = 1..{depth}"]
    problems = []
    for r in rows:
        t, hat = int(r["t"]), float(r["gamma_hat"])
        g = gammas[t]
        if not _close(float(r["gamma_theory"]), g):
            problems.append(f"gamma_theory at t={t} is {r['gamma_theory']}, not {g}")
        if not _close(float(r["stderr"]), math.sqrt(hat * (1.0 - hat) / trials)):
            problems.append(f"stderr at t={t} is not the binomial standard error")
        z = (hat - g) / math.sqrt(g * (1.0 - g) / trials)
        if abs(z) > Z_TREE:
            problems.append(f"gamma_hat at t={t} is {z:.2f} standard errors from theory")
    return problems


# -- child processes -------------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """This checkout's src only, and no thread override: the argv says it all."""
    env = dict(os.environ)
    env.pop("COLLAPSE_LAB_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class ChildResult:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    status: int | None  # exit code; None after a timeout
    stdout: str
    stderr: str


def run_child(args: list[str]) -> ChildResult:
    """Run `python args...`; CPU and max RSS come from wait4, pool workers included."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
    )
    expired = threading.Event()
    chunks: dict[str, bytes] = {}
    readers = [
        threading.Thread(target=lambda k=k, f=f: chunks.__setitem__(k, f.read()))
        for k, f in (("out", proc.stdout), ("err", proc.stderr))
    ]
    for r in readers:
        r.start()
    killer = threading.Timer(CHILD_TIMEOUT_S, lambda: (expired.set(), proc.kill()))
    killer.start()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    proc.stdout.close()
    proc.stderr.close()
    return ChildResult(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # kB on Linux
        status=None if expired.is_set() else proc.returncode,
        stdout=chunks["out"].decode(),
        stderr=chunks["err"].decode(),
    )


# -- in-process traced runs -----------------------------------------------------------


class RunTimeout(Exception):
    """Raised inside an in-process run that outlives its time limit."""


@contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise RunTimeout(f"in-process run exceeded {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def load_program():
    """The CLI and its layer modules, imported from this checkout's src."""
    os.environ.pop("COLLAPSE_LAB_THREADS", None)
    sys.path.insert(0, str(SRC))
    from collapse_lab import collapse_engine, experiments_cli, graph_core, theory, tree_process

    if Path(experiments_cli.__file__).resolve().parent != SRC / "collapse_lab":
        raise ImportError(f"collapse_lab imported from {experiments_cli.__file__}, not {SRC}")
    return experiments_cli, collapse_engine, graph_core, tree_process, theory


def run_in_process(main, argv: list[str]) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with time_limit(CHILD_TIMEOUT_S), redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        status = main(argv)
        wall = perf_counter() - start
    return wall, status, out.getvalue(), err.getvalue()


# -- statistics and reporting ----------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment() -> dict:
    def cpu_model() -> str:
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def git_sha() -> str | None:
        head = ROOT / ".git" / "HEAD"
        try:
            ref = head.read_text().strip()
            if ref.startswith("ref: "):
                return (ROOT / ".git" / ref[5:]).read_text().strip()
            return ref
        except OSError:
            return None

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "collapse_lab").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": nproc(),
        "cpu_model": cpu_model(),
    }


UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("us_per_step", "us_per_tree")):
        return "us"
    if name.endswith(("hit_ratio", "overhead_frac")):
        return "ratio"
    return "count"


class Run:
    """Attempts, failures and samples of one benchmark run."""

    def __init__(self, w: Workload, seed: int) -> None:
        self.w, self.seed = w, seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        pinned = json.loads((HERE / "digests.json").read_text())
        self.pinned = pinned.get(w.name, {}).get(str(seed))
        self.digests: set[str] = set()

    def add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def attempt(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += [f"{label}: {p}" for p in problems]

    def body_problems(self, status, stdout: str, stderr: str) -> list[str]:
        if status != 0:
            return [f"exit status {status}: {stderr.strip()[-300:]}"]
        problems = check_output(self.w, stdout, stderr)
        d = digest(stdout)
        self.digests.add(d)
        if self.pinned is not None and d != self.pinned:
            problems.append(f"body digest {d[:12]} differs from the pinned {self.pinned[:12]}")
        return problems


def fits(start: float, last: float, seconds: float) -> bool:
    """Whether one more repeat, as long as the last one, ends within the run."""
    now = perf_counter()
    return 2 * now - last - start <= seconds


def measure(run: Run, seconds: float) -> dict[str, float]:
    """Closed loop of subprocess invocations; end-to-end medians at reference speed.

    Each repeat runs the reference program, the set-up probe and the workload
    back to back; the two timed ones are rescaled to the reference's speed.
    Only the probe and the workload count as attempts of the program.
    """
    w = run.w
    threads = min(w.threads, nproc())
    argv = ["-m", "collapse_lab", *w.command(run.seed, threads)]
    start = last = perf_counter()
    ref_failures = 0
    rep = -1  # rep -1 compiles bytecode and warms the file cache, untimed
    while rep < MIN_REPS or fits(start, last, seconds):
        last = perf_counter()
        ref = run_child([str(HERE / "reference.py"), str(threads)])
        if ref.status != 0:
            ref_failures += 1
            if ref_failures > MAX_REF_FAILURES:
                raise RuntimeError(f"reference.py exit status {ref.status}: {ref.stderr.strip()[-300:]}")
            continue
        setup = run_child(["-c", SETUP_CODE])
        run.attempt(f"setup {rep}", [] if setup.status == 0 else [f"exit status {setup.status}"])
        if rep < 0:
            rep += 1
            continue
        res = run_child(argv)
        run.attempt(f"invocation {rep}", run.body_problems(res.status, res.stdout, res.stderr))
        scale = REF_S[threads] / ref.wall_s
        run.add("setup_s", setup.wall_s * scale)
        run.add("wall_s", res.wall_s * scale)
        run.add("cpu_s", res.cpu_s * scale)
        run.add("peak_rss_mb", res.peak_rss_mb)
        run.add("raw.reference_s", ref.wall_s)
        run.add("raw.reference_cpu_s", ref.cpu_s)
        run.add("raw.setup_s", setup.wall_s)
        run.add("raw.wall_s", res.wall_s)
        run.add("raw.cpu_s", res.cpu_s)
        rep += 1
    return {k: statistics.median(run.samples[k]) for k in UNITS}


def measure_layers(run: Run, seconds: float) -> tuple[dict[str, float], list[tuple]]:
    """Untraced subprocess body, then alternating plain/traced in-process pairs."""
    w = run.w
    start = perf_counter()
    res = run_child(["-m", "collapse_lab", *w.command(run.seed)])
    run.attempt("untraced subprocess", run.body_problems(res.status, res.stdout, res.stderr))
    cli, engine, graph_core, tree, theory = load_program()
    argv = w.command(run.seed, 1)
    names = [*tracer.layer_metrics([], {}), "trace.overhead_frac"]
    spans: list[tuple] = []
    pair = 0
    last = perf_counter()
    while pair < 1 or fits(start, last, seconds):
        last = perf_counter()
        walls = {}
        for traced in (False, True) if pair % 2 == 0 else (True, False):
            label = f"{'traced' if traced else 'plain'} {pair}"
            tr = tracer.Tracer()
            targets = tracer.instrument(tr, cli, engine, graph_core, tree, theory) if traced else []
            main = tr.wrap(tracer.MAIN, cli.main) if traced else cli.main
            try:
                with tracer.patched(targets):
                    walls[traced], status, out, err = run_in_process(main, argv)
            except Exception:  # a crash or timeout fails this run, not the benchmark
                run.attempt(label, [traceback.format_exc(limit=-3)])
                continue
            problems = run.body_problems(status, out, err)
            if traced:
                metrics = tracer.layer_metrics(tr.spans, tr.counts)
                gap = tracer.layer_sum_gap(metrics)
                if gap > 1e-6 * metrics[f"{tracer.MAIN}.s"]:
                    problems.append(f"layer self times miss main by {gap} s")
                for k, v in metrics.items():
                    run.add(k, v)
                spans = tr.spans
            run.attempt(label, problems)
        if len(walls) == 2:
            run.add("trace.overhead_frac", walls[True] / walls[False] - 1.0)
        pair += 1
    values = {k: statistics.median(run.samples.get(k, [0.0])) for k in names}
    return values, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "collapse_lab" / "experiments_cli.py").is_file():
        print(f"error: no collapse-lab sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    run = Run(w, args.seed)
    spans: list[tuple] = []
    if args.trace:
        values, spans = measure_layers(run, args.seconds)
        units = {k: per_layer_unit(k) for k in values}
    else:
        values = measure(run, args.seconds)
        units = UNITS
    if len(run.digests) > 1:  # pinned or not, every body of one seed must agree
        run.failed += 1
        run.problems.append(f"determinism: {len(run.digests)} distinct bodies for one seed")

    def summary(k: str) -> dict:
        samples = run.samples.get(k, [])
        q1, median, q3 = quartiles(samples or [values[k]])
        return {"median": median, "quartiles": [q1, q3], "samples": len(samples),
                "unit": units.get(k, "s")}

    table = {k: summary(k) for k in [*values, *(k for k in run.samples if k not in values)]}
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": w.name,
        "argv": w.command(args.seed, 1 if args.trace else None),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": table,
        "samples": run.samples,
        "spans": spans,
    }
    out_path = RESULTS / f"{w.name}.seed{args.seed}.trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n")

    for p in run.problems:
        print(f"FAIL {p}", file=sys.stderr)
    print(f"{w.name} seed={args.seed}: error_rate={run.failed / run.attempted:.4f} "
          f"({run.failed}/{run.attempted})", file=sys.stderr)
    for k, row in table.items():
        q1, q3 = row["quartiles"]
        print(f"  {k:44s} {row['median']:14.6g} [{q1:.6g}, {q3:.6g}] n={row['samples']} "
              f"{row['unit']}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
