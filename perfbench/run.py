"""End-to-end and per-layer benchmark of the blasius-powerlaw CLI.

    python3 perfbench/run.py --workload solve-mix --seed 1 --seconds 30 --trace 0

Run from the repository root.  One closed-loop client drives the public CLI
in-process (`cli.run(argv)` with stdout captured), one request at a time with
no think time, and checks every answer against the frozen references in
`references.json`.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it record the
run context and the answer tally.

--trace 0 reports the end-to-end metrics with no hooks installed.  --trace 1
replays a fixed, seed-determined list of requests, alternating untraced and
traced passes, and reports the per-layer metrics of `layers.Tracer`.

Workloads and the reasons for them are described in README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import NamedTuple

import calibration
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "blasius_powerlaw")
REFERENCES = os.path.join(HERE, "references.json")

#: Relative tolerance of an answer against its reference.
REL_TOL = 1e-9
#: Exponents whose answers the seed gets wrong by design of its routing
#: (polynomial extrapolation at n = 0.5 and n = 2.0, ROADMAP aim 3).  Their
#: wrong answers count in failed_frac and answers_ok_frac like any other;
#: they only do not turn `correct` false.
KNOWN_WRONG = (0.5, 2.0)

GRID = [round(k / 100, 2) for k in range(10, 201)]
#: 191 / golden ratio; coprime with the prime grid size 191.
GRID_STRIDE = 118
PAPER_GRID_ARGV = ["--n-from", "0.1", "--n-to", "2.0", "--n-step", "0.1"]
SENSITIVITY_ETAS = ("6", "8", "10", "15", "20", "40")
TABLE_ROWS = 20
# solve-mix request kinds per block of ten, shuffled within each block.
SOLVE_MIX_BLOCK = ("solve",) * 7 + ("profile",) * 2 + ("sensitivity",)

#: Highest percentile with at least ten of a 30 s run's requests beyond it.
TAIL_PERCENTILE = {"solve-mix": 96, "table": 60, "verify": 80}
#: Requests replayed by each pass of a traced run.
TRACE_REQUESTS = {"solve-mix": 30, "table": 3, "verify": 8}
#: Pairs of fresh interpreters that time the NumPy and package imports,
#: spread evenly over a run's requests.
SETUP_INTERPRETERS = 10
#: Largest median ratio of the calibration kernel's time after a request to
#: its time just after that in a process that never runs the program, before
#: the run is flagged: a program that leaves its process slower also slows the
#: divisor of its own latencies.
KERNEL_DRIFT_LIMIT = 1.15

SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import blasius_powerlaw; print(time.perf_counter() - t); print(blasius_powerlaw.__file__)"
)
NUMPY_CODE = (
    "import sys, time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"
)
PROBE_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import calibration\n"
    "for _ in sys.stdin: print(calibration.kernel_seconds(), flush=True)"
)


class Request(NamedTuple):
    """One CLI invocation and the (exponent, star boundary) of each answer it owes."""

    kind: str
    argv: list[str]
    answers: list[tuple[str, str]]


def _n_arg(n: float) -> str:
    return f"{n:.2f}"


def exponent_stream(rng: random.Random):
    """Seeded low-discrepancy walks over the grid, one after another.

    Each walk starts at a seeded exponent and steps GRID_STRIDE places modulo
    the grid size, so it visits every exponent once, n = 0.5 and n = 2.0
    included, and any run of consecutive draws spreads evenly over the grid.
    Shooting iterations, and so verify latency, fall in steps along n; with
    plain random draws the median latency jumped between steps with the seed.
    """
    while True:
        start = rng.randrange(len(GRID))
        for i in range(len(GRID)):
            yield GRID[(start + i * GRID_STRIDE) % len(GRID)]


def requests(workload: str, seed: int):
    """Endless, seed-determined request sequence of a workload."""
    rng = random.Random(f"{workload}:{seed}")
    ns = exponent_stream(rng)
    if workload == "solve-mix":
        while True:
            block = list(SOLVE_MIX_BLOCK)
            rng.shuffle(block)
            for kind in block:
                x = _n_arg(next(ns))
                if kind == "sensitivity":
                    yield Request(
                        kind,
                        ["sensitivity", "--n", x, "--eta-inf", ",".join(SENSITIVITY_ETAS)],
                        [(x, eta) for eta in SENSITIVITY_ETAS],
                    )
                else:
                    yield Request(kind, [kind, "--n", x], [(x, "10")])
    elif workload == "table":
        head = ["table", "--method", "nitm", "--format", "json"]
        yield Request("table", head + PAPER_GRID_ARGV, [(_n_arg(k / 10), "10") for k in range(1, 21)])
        while True:
            xs = [_n_arg(next(ns)) for _ in range(TABLE_ROWS)]
            argv = head + [a for x in xs for a in ("--n", x)]
            yield Request("table", argv, [(x, "10") for x in xs])
    elif workload == "verify":
        while True:
            x = _n_arg(next(ns))
            yield Request("verify", ["verify", "--n", x, "--tol", "1e-9"], [(x, "10")])
    else:
        raise ValueError(workload)


# -- answer checking ------------------------------------------------------


def _close(value, ref: float) -> bool:
    return isinstance(value, float) and abs(value - ref) <= REL_TOL * abs(ref)


def answers_in(req: Request, out: str) -> dict[tuple[str, str], list[tuple]]:
    """Answers found in a request's stdout, keyed by (exponent, star boundary).

    Each answer is a tuple of the fpp0 values printed for it (verify prints
    both routes).  Raises ValueError, KeyError, IndexError or TypeError when the output
    is not the document the subcommand promises.
    """
    got: dict[tuple[str, str], list[tuple]] = {}

    def add(n, eta, *values):
        got.setdefault((_n_arg(float(n)), eta), []).append(values)

    if req.kind == "solve":
        doc = json.loads(out)
        add(doc["n"], "10", doc["fpp0"])
    elif req.kind == "verify":
        doc = json.loads(out)
        add(doc["n"], "10", doc["fpp0_nitm"], doc["fpp0_shooting"])
    elif req.kind == "profile":
        lines = out.splitlines()
        header = lines[0].split(",")
        if len(header) != 8 or len(lines) < 3:
            raise ValueError("profile CSV must have 8 columns and at least two rows")
        add(req.answers[0][0], "10", float(lines[1].split(",")[header.index("fpp")]))
    elif req.kind == "sensitivity":
        lines = out.splitlines()
        if lines[0] != "eta_inf,fpp0,error":
            raise ValueError("unexpected sensitivity header")
        for line in lines[1:]:
            eta, fpp0, err = line.split(",", 2)
            add(req.answers[0][0], eta, None if err else float(fpp0))
    elif req.kind == "table":
        for row in json.loads(out)["rows"]:
            add(row["n"], "10", row.get("fpp0_nitm"))
    return got


def check(req: Request, rc: int, out: str, refs: dict) -> list[tuple[str, str]]:
    """Answers of one request that are missing, failed or outside tolerance."""
    if rc != 0:
        return list(req.answers)
    try:
        got = answers_in(req, out)
    except (ValueError, KeyError, IndexError, TypeError):
        return list(req.answers)
    wrong = []
    for key in req.answers:
        found = got.get(key)
        values = found.pop(0) if found else ()
        if not values or not all(_close(v, refs[key[0]][key[1]]) for v in values):
            wrong.append(key)
    return wrong


class Tally:
    """Request and answer accounting shared by both modes.

    A request fails when the CLI raised, exited with a usage error or printed
    nothing; an answer is wrong when it is missing, its request exited
    non-zero, or it lies outside REL_TOL of its reference.
    """

    def __init__(self, refs: dict):
        self.refs = refs
        self.requests = 0
        self.request_failures: list[str] = []
        self.answers = 0
        self.wrong: list[tuple[str, str]] = []

    def call(self, run, req: Request) -> tuple[float, int, bool]:
        """Run one request through `run(argv)`.

        Returns its latency (s), the bytes it printed and whether it completed.
        """
        buf = io.StringIO()
        reason = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = run(req.argv)
        except Exception:  # a traceback is a failed request, not a crashed benchmark
            rc = None
            reason = traceback.format_exc().strip().splitlines()[-1]
        latency = time.perf_counter() - t0
        out = buf.getvalue()
        self.requests += 1
        self.answers += len(req.answers)
        completed = rc in (0, 1) and bool(out)
        if completed:
            self.wrong.extend(check(req, rc, out, self.refs))
        else:
            self.request_failures.append(f"{' '.join(req.argv)}: {reason or f'exit {rc}'}")
            self.wrong.extend(req.answers)
        return latency, len(out.encode()), completed

    @property
    def correct(self) -> bool:
        return not self.request_failures and all(float(n) in KNOWN_WRONG for n, _ in self.wrong)

    def summary(self) -> dict:
        return {
            "requests": self.requests,
            "failed_requests": self.request_failures[:5],
            "answers": self.answers,
            "wrong_answers": len(self.wrong),
            "failed_frac": len(self.wrong) / self.answers,
            "wrong_at_n": sorted({n for n, _ in self.wrong}),
        }


# -- set-up and context ---------------------------------------------------


def _fresh_interpreter(*args: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "-I", "-c", *args], capture_output=True, text=True, timeout=60, check=True
    )
    return proc.stdout.split("\n")


def setup_sample() -> tuple[float, float]:
    """Import times of the package and, just before it, of NumPy, each in a fresh interpreter."""
    numpy_s = _fresh_interpreter(NUMPY_CODE)[0]
    package_s, module_file = _fresh_interpreter(SETUP_CODE, SRC)[:2]
    if not os.path.abspath(module_file).startswith(PACKAGE_DIR):
        raise RuntimeError(f"imported {module_file}, not the package under {SRC}")
    return float(package_s), float(numpy_s)


@contextlib.contextmanager
def kernel_probe():
    """A process that never runs the program; calling the yielded function times the kernel there."""
    proc = subprocess.Popen(
        [sys.executable, "-I", "-c", PROBE_CODE, HERE], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )

    def seconds() -> float:
        proc.stdin.write("\n")
        proc.stdin.flush()
        return float(proc.stdout.readline())

    try:
        yield seconds
    finally:
        proc.stdin.close()
        proc.stdout.close()
        proc.wait(timeout=60)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def context(args, numpy_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _commit(),
        "src_sha256": _src_sha256(),
        "client": "closed loop, 1 client, no think time, in-process cli.run",
    }


# -- the two modes --------------------------------------------------------


def nearest_rank(sorted_values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def warm_up(cli, tally: Tally) -> None:
    """One checked request first: lazy NumPy set-up and first calls are not what users repeat."""
    tally.call(cli.run, Request("solve", ["solve", "--n", "1.00"], [("1.00", "10")]))


def end_to_end(args, cli, tally: Tally, ctx: dict) -> dict:
    """End-to-end metrics of a closed-loop run, no hooks installed.

    Latencies are in reference milliseconds: each request's wall time scaled
    by calibration.REFERENCE_S over the mean of the calibration kernel's time
    just before and just after it.  After each request the kernel is also
    timed in a process that never runs the program, and kernel_drift in the
    context line is the median ratio of the two.  Between requests, at even
    intervals of
    the request time, fresh interpreters time the package import and, just
    before it, NumPy's import; setup_s is the median ratio of the two in units
    of calibration.NUMPY_IMPORT_S.  The run lasts args.seconds of request
    time plus the time of these interpreters.  The raw figures are in the
    context line.
    """
    setup_sample()  # writes the bytecode caches of a fresh checkout
    warm_up(cli, tally)
    stream = requests(args.workload, args.seed)
    imports, drifts, raw, scaled, kernels = [], [], [], [], []
    completed = 0
    with kernel_probe() as probe_seconds:
        k_before = calibration.kernel_seconds()
        t_start = time.perf_counter()
        while (elapsed := time.perf_counter() - t_start) < args.seconds:
            if len(imports) < SETUP_INTERPRETERS and elapsed >= len(imports) * args.seconds / SETUP_INTERPRETERS:
                t0 = time.perf_counter()
                imports.append(setup_sample())
                k_before = calibration.kernel_seconds()
                t_start += time.perf_counter() - t0
                continue
            latency, _, done = tally.call(cli.run, next(stream))
            k_after = calibration.kernel_seconds()
            drifts.append(k_after / probe_seconds())
            completed += done
            raw.append(latency)
            kernels.append(k_after)
            scaled.append(latency * calibration.REFERENCE_S / ((k_before + k_after) / 2))
            k_before = k_after
    while len(imports) < SETUP_INTERPRETERS:
        imports.append(setup_sample())

    pct = TAIL_PERCENTILE[args.workload]
    tail, beyond = nearest_rank(sorted(scaled), pct)
    kernel_drift = statistics.median(drifts)
    if kernel_drift > KERNEL_DRIFT_LIMIT:
        print(
            f"perfbench: the calibration kernel ran {kernel_drift:.2f}x slower after requests "
            "than in a process that runs none; the scaled latencies understate this run",
            file=sys.stderr,
        )
    ctx.update(
        requests=len(scaled),
        tail_percentile=pct,
        samples_beyond_tail=beyond,
        raw_latency_p50_ms=statistics.median(raw) * 1e3,
        raw_latency_tail_ms=nearest_rank(sorted(raw), pct)[0] * 1e3,
        raw_throughput_rps=completed / sum(raw),
        kernel_p50_ms=statistics.median(kernels) * 1e3,
        kernel_drift=kernel_drift,
        kernel_drift_flag=kernel_drift > KERNEL_DRIFT_LIMIT,
        setup_interpreters=len(imports),
        raw_setup_s=statistics.median(t for t, _ in imports),
        numpy_import_p50_s=statistics.median(t for _, t in imports),
    )
    return {
        "latency_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        # Closed loop with no think time: completed requests per busy second.
        "throughput_rps": (completed / sum(scaled), "1/s"),
        "answers_ok_frac": (1.0 - len(tally.wrong) / tally.answers, "frac"),
        "setup_s": (statistics.median(t / u for t, u in imports) * calibration.NUMPY_IMPORT_S, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced(args, cli, tally: Tally, ctx: dict) -> tuple[dict, bool]:
    """Per-layer metrics: replay a fixed request list, alternating untraced and traced passes.

    Counts come from the first traced pass and must repeat exactly in every
    later one; times are medians over the traced passes.  Returns the metrics
    and whether the counts repeated.
    """
    stream = requests(args.workload, args.seed)
    reqs = [next(stream) for _ in range(TRACE_REQUESTS[args.workload])]
    answers = sum(len(r.answers) for r in reqs)

    def timed_pass(run) -> tuple[float, int]:
        """Pass wall time over the calibration kernel's time around it, and bytes printed."""
        kernel = calibration.kernel_seconds()
        t0 = time.perf_counter()
        nbytes = sum(tally.call(run, req)[1] for req in reqs)
        elapsed = time.perf_counter() - t0
        return elapsed / (kernel + calibration.kernel_seconds()), nbytes

    warm_up(cli, tally)
    untraced, with_hooks, passes = [], [], []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < args.seconds:
        untraced.append(timed_pass(cli.run)[0])
        tracer = layers.Tracer()
        tracer.install()
        try:
            scaled, tracer.counts["bytes_out"] = timed_pass(tracer.span("cli.run", cli.run))
        finally:
            tracer.remove()
        with_hooks.append(scaled)
        values, absent = tracer.metrics(answers)
        passes.append(values)

    repeated = all(p[k] == passes[0][k] for p in passes for k in layers.COUNT_METRICS if k in p)
    ctx.update(
        trace_requests=len(reqs),
        trace_passes=len(passes),
        counts_repeat=repeated,
        absent_metrics=absent,
        missing_hooks=tracer.missing,
    )
    metrics = {}
    for name in passes[0]:
        value = passes[0][name]
        if name not in layers.COUNT_METRICS:
            value = statistics.median(p[name] for p in passes)
        metrics[name] = (value, layers.METRICS[name][0])
    overhead = statistics.median(with_hooks) / statistics.median(untraced) - 1.0
    metrics["trace_overhead_frac"] = (overhead, "frac")
    return metrics, repeated


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="blasius-powerlaw CLI benchmark")
    parser.add_argument("--workload", choices=tuple(TAIL_PERCENTILE), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        print(f"perfbench: no package source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy
    from blasius_powerlaw import cli

    if not os.path.abspath(cli.__file__).startswith(PACKAGE_DIR):
        print(f"perfbench: imported {cli.__file__}, not the package under {SRC}", file=sys.stderr)
        return 2
    with open(REFERENCES) as fh:
        refs = json.load(fh)["fpp0"]

    ctx = context(args, numpy.__version__)
    tally = Tally(refs)
    repeated = True
    if args.trace:
        metrics, repeated = traced(args, cli, tally, ctx)
    else:
        metrics = end_to_end(args, cli, tally, ctx)
    ctx["answers"] = tally.summary()
    print(json.dumps({"context": ctx}))
    result = {
        "correct": tally.correct and repeated,
        "attempted": tally.requests,
        "failed": len(tally.request_failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
