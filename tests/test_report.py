import json
import math

import pytest

from blasius_powerlaw import ode_core, report
from blasius_powerlaw.ode_core import DomainError, IntegratorConfig
from blasius_powerlaw.nitm import NitmConfig, solve as nitm_solve
from blasius_powerlaw.report import (
    PROFILE_COLUMNS,
    SelectionError,
    SweepRow,
    SweepSpec,
    boundary_sensitivity,
    emit_json,
    export_profile,
    render_table,
    sweep_table,
)
from blasius_powerlaw.shooting import ShootingConfig


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            SweepSpec(n_values=())
        with pytest.raises(DomainError):
            SweepSpec(n_values=(0.5, -1.0))
        with pytest.raises(DomainError):
            SweepSpec(n_values=(math.nan, 1.0))
        with pytest.raises(DomainError):
            SweepSpec(n_values=(1.0,), method="bogus")


class TestSweepTable:
    def test_rows_sorted_and_tagged(self):
        rows = sweep_table(SweepSpec(n_values=(1.0, 0.5, 0.3)))
        assert [r.n for r in rows] == [0.3, 0.5, 1.0]
        assert rows[0].method_tag == "direct"
        assert rows[1].method_tag == "direct"
        assert rows[2].fpp0_nitm == pytest.approx(0.332057336217, abs=1e-9)

    def test_both_methods_fill_discrepancy(self):
        rows = sweep_table(SweepSpec(n_values=(1.0,), method="both"))
        row = rows[0]
        assert row.fpp0_nitm is not None and row.fpp0_shooting is not None
        # Shooting imposes the far field at the one-IVP row's physical
        # endpoint, so the two routes solve the same problem.
        assert row.discrepancy is not None and row.discrepancy < 1e-10
        assert row.discrepancy == abs(row.fpp0_nitm - row.fpp0_shooting) / row.fpp0_shooting
        assert row.eta_star_inf == 10.0
        assert row.eta_inf_physical == nitm_solve(1.0).profile.final.eta

    def test_overflow_is_a_row_error(self):
        cfg = NitmConfig(eta_star_inf=1e-250)  # a^2 b = F'_inf^(-3/2) overflows
        (row,) = sweep_table(SweepSpec(n_values=(1.0,), nitm_config=cfg))
        assert row.fpp0_nitm is None and "overflows" in row.error

    def test_shooting_only(self):
        rows = sweep_table(SweepSpec(n_values=(1.0,), method="shooting"))
        assert rows[0].fpp0_nitm is None
        assert rows[0].fpp0_shooting == pytest.approx(0.33205734, abs=1e-7)
        assert rows[0].eta_star_inf is None
        assert rows[0].eta_inf_physical == 10.0

    def test_per_row_error_capture(self, monkeypatch):
        # A bad truncated boundary cannot be built, so provoke a row-level
        # numerical failure with a step budget too small to finish.
        monkeypatch.setattr(ode_core, "MAX_STEPS", 50)
        rows = sweep_table(SweepSpec(n_values=(1.0,)))
        assert rows[0].error is not None
        assert rows[0].fpp0_nitm is None

    @pytest.mark.parametrize("method", ["both", "shooting", "both-nitm-failed"])
    def test_shooting_runs_on_the_nitm_config(self, method, monkeypatch):
        # Shooting takes nitm_config's integrator, and the row's one-IVP
        # physical endpoint as its boundary, or eta_star_inf without one.
        cfg = NitmConfig(eta_star_inf=8.0, integrator=IntegratorConfig(rel_tol=1e-11))
        eta = nitm_solve(0.7, cfg).profile.final.eta if method == "both" else 8.0
        if method == "both-nitm-failed":
            monkeypatch.setattr(ode_core, "MAX_STEPS", 3)  # too few for the one-IVP solve
            method = "both"
        seen, shoot = [], report.solve_shooting
        monkeypatch.setattr(report, "solve_shooting", lambda n, c: seen.append(c) or shoot(n, c))
        (row,) = sweep_table(SweepSpec(n_values=(0.7,), method=method, nitm_config=cfg))
        assert seen == [ShootingConfig(eta_inf=eta, integrator=cfg.integrator)]
        assert row.eta_inf_physical == eta


class TestBoundarySensitivity:
    def test_converges_in_boundary(self):
        records = boundary_sensitivity(1.0, [6.0, 10.0, 20.0])
        values = [v for _, v, _ in records]
        assert all(v is not None for v in values)
        # Successive boundary doublings change the answer less and less.
        assert abs(values[2] - values[1]) < abs(values[1] - values[0])
        assert values[2] == pytest.approx(0.3320573362171015, abs=1e-10)

    def test_input_order_and_duplicates_kept(self):
        records = boundary_sensitivity(1.0, [10.0, 6.0, 10.0])
        assert [eta for eta, _, _ in records] == [10.0, 6.0, 10.0]
        assert records[0] == records[2]
        assert all(v is not None and err is None for _, v, err in records)

    @pytest.mark.parametrize("n", [0.3, 1.0, 1.7])
    def test_one_pass_matches_separate_solves(self, n, monkeypatch):
        calls = []
        original = ode_core.integrate_system

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        etas = [15.0, 6.0, 40.0, 8.0]
        monkeypatch.setattr(ode_core, "integrate_system", counting)
        records = boundary_sensitivity(n, etas)
        assert len(calls) == 1
        monkeypatch.undo()
        # The pass up to the smallest boundary is the same run as a solve
        # to it; after that stop the step sequence differs.
        for eta, value, _ in records:
            alone = nitm_solve(n, NitmConfig(eta_star_inf=eta)).fpp0
            if eta == min(etas):
                assert value == alone
            else:
                assert value == pytest.approx(alone, rel=1e-11, abs=0.0)

    def test_failed_boundary_keeps_the_others(self):
        # 1e7 is beyond the default step budget of 1e6 steps of h_max 0.5.
        (_, value, error), (_, value_far, error_far) = boundary_sensitivity(1.0, [6.0, 1e7])
        assert value == nitm_solve(1.0, NitmConfig(eta_star_inf=6.0)).fpp0 and error is None
        assert value_far is None and "step budget" in error_far

    def test_overflowing_boundary_keeps_the_others(self):
        # At eta* = 1e-250, a^2 b = f''(0) = F'_inf^(-3/2) overflows.
        (_, value, error), (_, value_far, error_far) = boundary_sensitivity(1.0, [1e-250, 10.0])
        assert value is None and "overflows" in error
        assert value_far == pytest.approx(nitm_solve(1.0).fpp0, rel=1e-11) and error_far is None

    def test_bad_boundary_rejected(self):
        with pytest.raises(DomainError):
            boundary_sensitivity(1.0, [10.0, -1.0])
        with pytest.raises(DomainError):
            boundary_sensitivity(1.0, [math.nan])


class TestExportProfile:
    def test_header_and_shape(self):
        result = nitm_solve(1.0)
        text = export_profile(result)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(PROFILE_COLUMNS)
        assert len(lines) == 1 + len(result.profile.grid.ts)

    def test_column_subset_and_full_precision(self):
        result = nitm_solve(1.0)
        text = export_profile(result, ("eta", "fpp"))
        lines = text.strip().split("\n")
        assert lines[0] == "eta,fpp"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(result.fpp0, rel=1e-15)

    def test_unknown_column(self):
        with pytest.raises(SelectionError):
            export_profile(nitm_solve(1.0), ("eta", "vorticity"))


class TestJsonRoundtrip:
    def test_roundtrip(self):
        rows = sweep_table(SweepSpec(n_values=(0.7, 1.2), method="both"))
        doc = emit_json(rows, {"method": "both"})
        back = [SweepRow(**row) for row in json.loads(doc)["rows"]]
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            assert a.n == b.n
            assert a.fpp0_nitm == b.fpp0_nitm  # full precision survives
            assert a.fpp0_shooting == b.fpp0_shooting
        assert back == rows

    def test_none_fields_skipped(self):
        doc = emit_json([SweepRow(n=1.0, fpp0_nitm=0.5)])
        assert "error" not in doc
        assert "fpp0_shooting" not in doc


class TestRenderTable:
    def test_six_decimals(self):
        rows = sweep_table(SweepSpec(n_values=(1.0,)))
        text = render_table(rows)
        lines = text.strip().split("\n")
        assert lines[0].startswith("n,fpp0_nitm")
        assert "0.332057" in lines[1]

    def test_error_row_rendered(self):
        text = render_table([SweepRow(n=0.5, error="boom")])
        assert "boom" in text
