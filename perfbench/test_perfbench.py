"""Tests of the benchmark's own hooks, counters and answer checks.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, run.SRC)

from blasius_powerlaw import cli, shooting  # noqa: E402

with open(run.REFERENCES) as fh:
    REFS = json.load(fh)["fpp0"]


def traced_pass(argvs):
    tracer = layers.Tracer()
    tracer.install()
    try:
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                tracer.span("cli.run", cli.run)(argv)
    finally:
        tracer.remove()
    return tracer


@pytest.mark.parametrize("n", ["0.3", "1.0", "1.7"])
def test_rhs_calls_match_integrations_steps_and_projections(n):
    tracer = traced_pass([["solve", "--n", n]])
    c = tracer.counts
    integrations = tracer.calls["ode_core.integrate_system"]
    assert integrations == 1
    assert c["rhs_calls"] == integrations + 6 * c["attempted_steps"] + c["projections"]
    values, absent = tracer.metrics(answers=1)
    assert absent == {}
    assert values["ode_core.steps_accepted"] + values["ode_core.steps_rejected"] == c["attempted_steps"]
    # Only n > 1 has the non-Lipschitz extinction point that rejects steps.
    assert (values["ode_core.accept_ratio"] < 1.0) == (float(n) > 1.0)


def test_counts_repeat_across_traced_runs():
    reqs = [r.argv for r in itertools.islice(run.requests("solve-mix", 3), 10)]
    reqs.append(["verify", "--n", "0.70", "--tol", "1e-9"])
    first, _ = traced_pass(reqs).metrics(answers=1)
    second, _ = traced_pass(reqs).metrics(answers=1)
    assert first["ode_core.integrations"] > 10
    assert first["shooting.residual_evals_per_solve"] > 0
    for name in layers.COUNT_METRICS:
        assert first[name] == second[name], name


def test_hooks_are_removed_after_a_pass():
    before = {(m, a): getattr(sys.modules[f"blasius_powerlaw.{m}"], a) for m, a, _ in layers.SPAN_HOOKS}
    traced_pass([["solve", "--n", "1.0"]])
    after = {(m, a): getattr(sys.modules[f"blasius_powerlaw.{m}"], a) for m, a, _ in layers.SPAN_HOOKS}
    assert before == after


def test_missing_hook_is_named_and_its_metric_absent(monkeypatch):
    monkeypatch.delattr(shooting, "shoot_residual")
    tracer = traced_pass([["solve", "--n", "1.0"]])
    values, absent = tracer.metrics(answers=1)
    assert tracer.missing == ["shooting.shoot_residual"]
    assert absent == {"shooting.residual_evals_per_solve": ["shooting.shoot_residual"]}
    assert values["ode_core.rhs_calls"] > 0


def test_reference_table_covers_the_grid_and_matches_blasius():
    assert sorted(REFS) == [f"{n:.2f}" for n in run.GRID]
    assert all(sorted(row) == sorted(run.SENSITIVITY_ETAS) for row in REFS.values())
    assert abs(REFS["1.00"]["10"] - 0.33205733621519630) <= 1e-10


def test_tally_counts_wrong_answers_and_failed_requests():
    def solve(n):
        return run.Request("solve", ["solve", "--n", n], [(n, "10")])

    tally = run.Tally(REFS)
    assert tally.call(cli.run, solve("1.00"))[2] is True
    assert tally.wrong == [] and tally.correct
    # The seed extrapolates at n = 0.5: a wrong answer, counted but expected.
    tally.call(cli.run, solve("0.50"))
    assert tally.wrong == [("0.50", "10")] and tally.correct
    tally.call(lambda argv: print('{"n": 1.0, "fpp0": 0.3321}') or 0, solve("1.00"))
    assert tally.wrong[-1] == ("1.00", "10") and not tally.correct
    assert tally.call(lambda argv: 1 / 0, solve("1.00"))[2] is False
    assert tally.request_failures == ["solve --n 1.00: ZeroDivisionError: division by zero"]
    assert tally.summary()["failed_frac"] == 3 / 4


def test_kernel_probe_times_the_kernel_in_another_process():
    with run.kernel_probe() as seconds:
        assert 0 < seconds() < 1
        assert 0 < seconds() < 1


def _run_benchmark(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_every_declared_metric(trace):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    proc = _run_benchmark(run.ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_benchmark(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
