import math

import pytest

from blasius_powerlaw import ode_core, report
from blasius_powerlaw.ode_core import DomainError, IntegratorConfig, IvpState
from blasius_powerlaw.nitm import NitmConfig, solve as nitm_solve
from blasius_powerlaw.report import (
    PROFILE_COLUMNS,
    SelectionError,
    SweepRow,
    boundary_sensitivity,
    export_profile,
    sweep_table,
)
from blasius_powerlaw.shooting import ShootingConfig, solve_shooting


class TestSweepSpec:
    """`sweep_table` checks its arguments before any solve."""

    def test_validation(self, monkeypatch):
        monkeypatch.setattr(report, "nitm_solve", None)  # any solve would raise TypeError
        with pytest.raises(DomainError, match="non-empty"):
            sweep_table(())
        with pytest.raises(DomainError, match="every exponent"):
            sweep_table((0.5, -1.0))
        with pytest.raises(DomainError, match="every exponent"):
            sweep_table((math.nan, 1.0))
        with pytest.raises(DomainError, match="unknown method 'bogus'"):
            sweep_table((1.0,), method="bogus")


class TestSweepTable:
    def test_rows_sorted_and_tagged(self):
        rows = sweep_table((1.0, 0.5, 0.3))
        assert [r.n for r in rows] == [0.3, 0.5, 1.0]
        assert rows[0].method_tag == "direct"
        assert rows[1].method_tag == "direct"
        assert rows[2].fpp0_nitm == pytest.approx(0.332057336217, abs=1e-9)

    def test_both_methods_fill_discrepancy(self):
        rows = sweep_table((1.0,), method="both")
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
        (row,) = sweep_table((1.0,), nitm_config=cfg)
        assert row.fpp0_nitm is None and "overflows" in row.error

    def test_shooting_only(self):
        rows = sweep_table((1.0,), method="shooting")
        assert rows[0].fpp0_nitm is None
        assert rows[0].fpp0_shooting == pytest.approx(0.33205734, abs=1e-7)
        assert rows[0].eta_star_inf is None
        assert rows[0].eta_inf_physical == 10.0

    def test_per_row_error_capture(self, monkeypatch):
        # A bad truncated boundary cannot be built, so provoke a row-level
        # numerical failure with a step budget too small to finish.
        monkeypatch.setattr(ode_core, "MAX_STEPS", 50)
        rows = sweep_table((1.0,))
        assert rows[0].error is not None
        assert rows[0].fpp0_nitm is None

    @pytest.mark.parametrize("method", ["both", "shooting", "both-nitm-failed"])
    def test_shooting_runs_on_the_nitm_config(self, method, monkeypatch):
        # Shooting takes nitm_config's integrator, and the row's one-IVP
        # physical endpoint as its boundary, or eta_star_inf without one; it
        # starts from the row's one-IVP answer, or from G_START (None).
        cfg = NitmConfig(eta_star_inf=8.0, integrator=IntegratorConfig(rel_tol=1e-11))
        eta = nitm_solve(0.7, cfg).profile.final.eta if method == "both" else 8.0
        if method == "both-nitm-failed":
            monkeypatch.setattr(ode_core, "MAX_STEPS", 3)  # too few for the one-IVP solve
            method = "both"
        seen, shoot = [], report.solve_shooting

        def recording(n, c, start=None):
            seen.append((c, start))
            return shoot(n, c, start=start)

        monkeypatch.setattr(report, "solve_shooting", recording)
        (row,) = sweep_table((0.7,), method, cfg)
        assert seen == [(ShootingConfig(eta_inf=eta, integrator=cfg.integrator), row.fpp0_nitm)]
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
        # 1e7 is beyond the step budget of 1e6 steps of an explicit h_max 0.5.
        config = NitmConfig(integrator=IntegratorConfig(h_max=0.5))
        records = boundary_sensitivity(1.0, [6.0, 1e7], config)
        (_, value, error), (_, value_far, error_far) = records
        assert value == nitm_solve(1.0, config._replace(eta_star_inf=6.0)).fpp0 and error is None
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

    @pytest.mark.parametrize("columns", [None, ("fpp", "eta", "fpp")], ids=["all", "repeated"])
    def test_bytes_are_the_row_wise_rendering(self, columns):
        # Columns are formatted one at a time; the text is that of repr over
        # each row, joined by commas.
        result = nitm_solve(1.7)
        names = columns or PROFILE_COLUMNS
        data = {}
        for suffix, profile in (("", result.profile), ("_star", result.star_profile)):
            f, fp, _ = zip(*profile.grid.states)
            values = (profile.grid.nodes, f, fp, profile.curvatures())
            data.update(zip((c + suffix for c in ("eta", "f", "fp", "fpp")), values))
        rows = [",".join(map(repr, row)) for row in zip(*(data[c] for c in names))]
        assert export_profile(result, columns) == "\n".join([",".join(names), *rows]) + "\n"

    def test_unknown_column(self):
        with pytest.raises(SelectionError):
            export_profile(nitm_solve(1.0), ("eta", "vorticity"))


class TestRecords:
    """Results compare by value, records are read-only, and configs check
    their fields however they are built."""

    def test_equal_solves_compare_equal(self):
        assert nitm_solve(0.7) == nitm_solve(0.7)
        assert nitm_solve(0.7).profile == nitm_solve(0.7).profile
        assert nitm_solve(0.7) != nitm_solve(0.8)
        assert solve_shooting(0.7) == solve_shooting(0.7)

    @pytest.mark.parametrize(
        "record, field",
        [
            (lambda: IvpState(0.0, 0.0, 0.0, 1.0), "w"),
            (IntegratorConfig, "h_max"),
            (NitmConfig, "c0"),
            (lambda: nitm_solve(0.7), "fpp0"),
            (ShootingConfig, "eta_inf"),
            (lambda: solve_shooting(0.7), "fpp0"),
            (lambda: SweepRow(1.0), "error"),
        ],
        ids=["IvpState", "IntegratorConfig", "NitmConfig", "NitmResult", "ShootingConfig",
             "ShootingResult", "SweepRow"],
    )
    def test_fields_are_read_only(self, record, field):
        obj = record()
        with pytest.raises(AttributeError):
            setattr(obj, field, 1.0)

    @pytest.mark.parametrize(
        "cls, args, kwargs",
        [
            (IntegratorConfig, (0.0,), {"rel_tol": 0.0}),
            (IntegratorConfig, (1e-9, -1.0), {"abs_tol": -1.0}),
            (IntegratorConfig, (1e-9, 1e-9, 5e-4), {"h_max": 5e-4}),
            (NitmConfig, (0.0,), {"eta_star_inf": 0.0}),
            (NitmConfig, (10.0, math.nan), {"c0": math.nan}),
            (ShootingConfig, (-1.0,), {"eta_inf": -1.0}),
        ],
    )
    def test_bad_value_rejected_by_keyword_and_position(self, cls, args, kwargs):
        with pytest.raises(DomainError):
            cls(*args)
        with pytest.raises(DomainError):
            cls(**kwargs)

    def test_repr(self):
        assert repr(NitmConfig(c0=2.0)) == (
            "NitmConfig(eta_star_inf=10.0, c0=2.0, integrator="
            "IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12, h_max=inf))"
        )

    @pytest.mark.parametrize(
        "config, change",
        [
            (IntegratorConfig(), {"h_max": 0.0}),
            (NitmConfig(), {"c0": -1.0}),
            (ShootingConfig(), {"eta_inf": math.inf}),
        ],
        ids=["IntegratorConfig", "NitmConfig", "ShootingConfig"],
    )
    def test_replace_validates(self, config, change):
        with pytest.raises(DomainError):
            config._replace(**change)

    def test_replace_and_asdict(self):
        config = NitmConfig()._replace(c0=2.0)
        assert type(config) is NitmConfig and config == NitmConfig(c0=2.0)
        row = SweepRow(1.0, fpp0_nitm=0.5)
        assert row._asdict() == {**dict.fromkeys(SweepRow._fields), "n": 1.0, "fpp0_nitm": 0.5}
