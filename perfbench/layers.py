"""Per-layer counts and self times, taken from outside the package.

A `Tracer` replaces public functions of `ode_core`, `nitm`, `shooting` and
`report` with wrappers, each patched under the name its caller looks it up
by (`cli` calls `nitm.solve` as `cli.nitm_solve`, `report` as
`report.nitm_solve`, and so on), and restores them on `remove()`.  The
package itself is not changed.

Spans nest: a span's self time is its duration minus the time covered by the
spans it opened.  Counts come from three places:

* `integrate_system` results: accepted steps are `len(grid.ts) - 1`;
* the right-hand-side callables returned by `flux_system`: every call is
  counted, and an attempted Dormand-Prince step is recognised by its last
  two stages, which are evaluated at the same abscissa t + h;
* the callables returned by `flux_nonnegative_projector`: the projection
  fired when it changed the state, which costs the integrator one extra
  right-hand-side call.

So `rhs_calls == integrations + 6 * attempted_steps + projections` holds
for the seed's integrator, and the benchmark's tests check it.

A hook whose target no longer exists is skipped and named in `missing`; the
metrics that depend on it are reported as absent, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

import numpy as np

PACKAGE = "blasius_powerlaw"

# (module, attribute, span name).  Spans time a call and nest.
SPAN_HOOKS = (
    ("cli", "nitm_solve", "nitm.solve"),
    ("cli", "solve_shooting", "shooting.solve_shooting"),
    ("report", "nitm_solve", "nitm.solve"),
    ("report", "solve_shooting", "shooting.solve_shooting"),
    ("report", "sweep_table", "report.sweep_table"),
    ("report", "boundary_sensitivity", "report.boundary_sensitivity"),
    ("report", "export_profile", "report.export_profile"),
    ("nitm", "solve_excluded", "nitm.solve_excluded"),
    ("nitm", "solve_star_ivp", "nitm.solve_star_ivp"),
    ("nitm", "rescale_profile", "nitm.rescale_profile"),
    ("shooting", "shoot_residual", "shooting.shoot_residual"),
    ("ode_core", "integrate_system", "ode_core.integrate_system"),
)
# Factories whose returned callables are counted.
RHS_HOOKS = (("nitm", "flux_system"), ("shooting", "flux_system"))
PROJECTOR_HOOKS = (("nitm", "flux_nonnegative_projector"), ("shooting", "flux_nonnegative_projector"))

_INTEGRATE = "ode_core.integrate_system"
_STEPS = "ode_core.integrate_system().ts"  # accepted steps are len(ts) - 1
_RHS = ("nitm.flux_system", "shooting.flux_system")
_PROJ = ("nitm.flux_nonnegative_projector", "shooting.flux_nonnegative_projector")
# Every span cli.run opens directly; without all of them cli self time
# would silently absorb a layer's work.
_CLI_CHILDREN = (
    "cli.nitm_solve",
    "cli.solve_shooting",
    "report.sweep_table",
    "report.boundary_sensitivity",
    "report.export_profile",
)

#: per-layer metric -> (unit, hooks it needs).
METRICS = {
    "ode_core.integrations": ("count", (_INTEGRATE,)),
    "ode_core.steps_accepted": ("count", (_INTEGRATE, _STEPS)),
    "ode_core.steps_rejected": ("count", (_INTEGRATE, _STEPS, *_RHS)),
    "ode_core.accept_ratio": ("frac", (_INTEGRATE, _STEPS, *_RHS)),
    "ode_core.rhs_calls": ("count", _RHS),
    "ode_core.projections": ("count", _PROJ),
    "ode_core.integrate_self_ms": ("ms", (_INTEGRATE,)),
    "ode_core.us_per_step": ("us", (_INTEGRATE, *_RHS)),
    "nitm.star_ivps_per_answer": ("ivp/answer", ("nitm.solve_star_ivp",)),
    "nitm.excluded_calls": ("count", ("nitm.solve_excluded",)),
    "nitm.rescale_self_ms": ("ms", ("nitm.rescale_profile",)),
    "shooting.residual_evals_per_solve": ("eval/solve", ("cli.solve_shooting", "shooting.shoot_residual")),
    "shooting.integrations_per_solve": ("ivp/solve", ("cli.solve_shooting", _INTEGRATE)),
    "report.export_self_ms": ("ms", ("report.export_profile",)),
    "report.export_us_per_row": ("us/row", ("report.export_profile",)),
    "report.sensitivity_ivps_per_call": ("ivp/call", ("report.boundary_sensitivity", _INTEGRATE)),
    "report.sweep_self_ms": ("ms", ("report.sweep_table",)),
    "cli.self_ms": ("ms", _CLI_CHILDREN),
    "cli.bytes_out": ("bytes", ()),
}

#: Metrics that are exact counts; they must repeat across traced runs.
COUNT_METRICS = (
    "ode_core.integrations",
    "ode_core.steps_accepted",
    "ode_core.steps_rejected",
    "ode_core.rhs_calls",
    "ode_core.projections",
    "nitm.excluded_calls",
    "cli.bytes_out",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Spans and counts for one traced pass over a request list."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.ivps_in: Counter[str] = Counter()  # integrations started inside each span
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack: list[tuple[str, list[float]]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def _patch(self, module_name: str, attr: str, make_wrapper) -> None:
        try:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(f"{module_name}.{attr}")
            return
        self._undo.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def install(self) -> None:
        for module_name, attr, name in SPAN_HOOKS:
            self._patch(module_name, attr, lambda fn, name=name: self.span(name, fn))
        for module_name, attr in RHS_HOOKS:
            self._patch(module_name, attr, self._rhs_factory)
        for module_name, attr in PROJECTOR_HOOKS:
            self._patch(module_name, attr, self._projector_factory)

    def remove(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    # -- spans ----------------------------------------------------------

    def span(self, name: str, fn):
        """`fn` wrapped in a span called `name`; hooks use it, and so can the caller."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == _INTEGRATE:
                for open_name in {n for n, _ in self._stack}:
                    self.ivps_in[open_name] += 1
            child = [0.0]
            self._stack.append((name, child))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                self._stack.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - child[0]
                if self._stack:
                    self._stack[-1][1][0] += duration
                if name == _INTEGRATE:
                    close = getattr(args[0] if args else kwargs.get("rhs"), "close_steps", None)
                    if close is not None:
                        close()
            if name == _INTEGRATE:
                ts = getattr(result, "ts", None)
                if ts is None:
                    if _STEPS not in self.missing:
                        self.missing.append(_STEPS)
                else:
                    self.counts["steps_accepted"] += len(ts) - 1
            elif name == "report.export_profile":
                self.counts["rows_exported"] += result.count("\n") - 1
            return result

        return wrapper

    # -- counted callables ------------------------------------------------

    def _rhs_factory(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            rhs = factory(*args, **kwargs)
            last_t = [None]
            run = [0]  # consecutive calls at the same abscissa

            def close_steps() -> None:
                if run[0] >= 2:
                    self.counts["attempted_steps"] += 1
                last_t[0], run[0] = None, 0

            def counted(t, y):
                self.counts["rhs_calls"] += 1
                if t == last_t[0]:
                    run[0] += 1
                else:
                    close_steps()
                    last_t[0], run[0] = t, 1
                return rhs(t, y)

            counted.close_steps = close_steps
            return counted

        return make

    def _projector_factory(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            project = factory(*args, **kwargs)

            def counted(y):
                out = project(y)
                # The integrator re-evaluates the RHS exactly when the state changed.
                if not np.array_equal(out, y):
                    self.counts["projections"] += 1
                return out

            return counted

        return make

    # -- derived metrics ------------------------------------------------

    def metrics(self, answers: int) -> tuple[dict[str, float], dict[str, list[str]]]:
        """Per-layer metrics of this pass, and the absent ones with the hooks they lack."""
        c, calls, self_ms = self.counts, self.calls, lambda k: self.self_s[k] * 1e3
        accepted, attempted = c["steps_accepted"], c["attempted_steps"]
        values = {
            "ode_core.integrations": calls[_INTEGRATE],
            "ode_core.steps_accepted": accepted,
            "ode_core.steps_rejected": attempted - accepted,
            "ode_core.accept_ratio": _ratio(accepted, attempted),
            "ode_core.rhs_calls": c["rhs_calls"],
            "ode_core.projections": c["projections"],
            "ode_core.integrate_self_ms": self_ms(_INTEGRATE),
            "ode_core.us_per_step": _ratio(self.self_s[_INTEGRATE] * 1e6, attempted),
            "nitm.star_ivps_per_answer": _ratio(calls["nitm.solve_star_ivp"], answers),
            "nitm.excluded_calls": calls["nitm.solve_excluded"],
            "nitm.rescale_self_ms": self_ms("nitm.rescale_profile"),
            "shooting.residual_evals_per_solve": _ratio(
                calls["shooting.shoot_residual"], calls["shooting.solve_shooting"]
            ),
            "shooting.integrations_per_solve": _ratio(
                self.ivps_in["shooting.solve_shooting"], calls["shooting.solve_shooting"]
            ),
            "report.export_self_ms": self_ms("report.export_profile"),
            "report.export_us_per_row": _ratio(
                self.self_s["report.export_profile"] * 1e6, c["rows_exported"]
            ),
            "report.sensitivity_ivps_per_call": _ratio(
                self.ivps_in["report.boundary_sensitivity"], calls["report.boundary_sensitivity"]
            ),
            "report.sweep_self_ms": self_ms("report.sweep_table"),
            "cli.self_ms": self_ms("cli.run"),
            "cli.bytes_out": c["bytes_out"],
        }
        absent = {}
        for name, (_, hooks) in METRICS.items():
            lacking = [h for h in hooks if h in self.missing]
            if lacking:
                absent[name] = lacking
                del values[name]
        return values, absent
