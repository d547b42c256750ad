import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import storesched
from _instances import lp_answer, lp_safe_instance
from storesched import (
    Advice,
    Recommendation,
    cli,
    detect_scd,
    feasibility_check,
    lp,
    objective,
    schedule_from_dict,
    schedule_to_dict,
    solve_storage_lp,
)
from storesched.cli import build_parser, main

FAST_PARAMS = """\
s_min = 0
s_max = 1
s_init = 0
p_chg_max = 2.0
p_dis_max = 2.0
eta_c = 0.9
eta_d = 0.9
rho = 1.0
dt_hours = 1.0
"""

SLOW_PARAMS = FAST_PARAMS.replace("p_chg_max = 2.0", "p_chg_max = 0.2").replace(
    "p_dis_max = 2.0", "p_dis_max = 0.2"
)

PARAM_KEYS = ("s_min", "s_max", "s_init", "p_chg_max", "p_dis_max", "eta_c", "eta_d", "rho",
              "dt_hours")


def price_csv(series):
    """A price CSV of the prices in the whitespace-separated series."""
    return "t,price_eur_per_mwh\n" + "".join(
        f"{t},{p}\n" for t, p in enumerate(series.split(), start=1))


DAY = "35.0 28.0 -5.0 -12.0 30.0 42.0 38.0 55.0"
PRICES = price_csv(DAY)


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "fast.txt").write_text(FAST_PARAMS)
    (tmp_path / "slow.txt").write_text(SLOW_PARAMS)
    (tmp_path / "prices.csv").write_text(PRICES)
    return tmp_path


def run(args):
    return main([str(a) for a in args])


def with_bom(path):
    """A copy of the file that starts with a UTF-8 byte-order mark, as
    spreadsheet exports write it."""
    copy = path.with_name("bom_" + path.name)
    copy.write_text(path.read_text(encoding="utf-8"), encoding="utf-8-sig")
    return copy


class TestParser:
    def test_module_entry_point(self):
        # python -m storesched.cli runs main and exits with its code
        src = Path(storesched.__file__).parents[1]
        done = subprocess.run([sys.executable, "-m", "storesched.cli", "--help"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout.startswith("usage: storesched ")

    def test_help_prints_the_exit_contract(self):
        # one unwrapped line per EXIT_* code, in EXIT_CONTRACT's words
        codes = sorted(v for k, v in vars(cli).items()
                       if k.startswith("EXIT_") and isinstance(v, int))
        text = build_parser().format_help()
        assert text.endswith("\n" + cli.EXIT_CONTRACT)
        assert [int(line.split()[0]) for line in text.splitlines()
                if re.match(r"  \d+ ", line)] == codes

    def test_built_once_and_reused(self, workspace, capsys):
        assert build_parser() is build_parser()
        prices = ["--prices", workspace / "prices.csv"]
        assert run(["advise", "--params", workspace / "fast.txt", *prices]) == 10
        assert run(["partition", *prices]) == 0
        assert run(["advise", "--params", workspace / "slow.txt", *prices]) == 0
        assert run(["partition", "--prices", workspace / "missing.csv"]) == 2
        out = capsys.readouterr().out
        assert '"solve_refined_milp"' in out and '"solve_lp"' in out

    def test_replaced_command_takes_effect(self, workspace, monkeypatch):
        build_parser()
        monkeypatch.setattr(cli, "cmd_partition", lambda args: 7)
        assert run(["partition", "--prices", workspace / "prices.csv"]) == 7


class TestPartition:
    def test_output(self, workspace, capsys):
        for prices in (workspace / "prices.csv", with_bom(workspace / "prices.csv")):
            assert run(["partition", "--prices", prices]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["t_neg"] == [3, 4]
            assert doc["n_bar"] == 2
            assert doc["longest_neg"] == {"start": 3, "end": 4}

    def test_bad_csv_exit_2(self, workspace, capsys):
        bad = workspace / "bad.csv"
        header = "t,price_eur_per_mwh\n"
        for text, message in (("t,price\n1,1\n", "line 1: expected header"),
                              ("", "line 1: empty file"),
                              (header + "1,1,1\n", "line 2: expected 2 fields, got 3"),
                              (header + "1,2\n2,nan\n", "line 3: price must be finite")):
            bad.write_text(text)
            assert run(["partition", "--prices", bad]) == 2
            assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")

    def test_directory_as_input_exit_2(self, workspace, capsys):
        assert run(["partition", "--prices", workspace]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestAdvise:
    def test_fast_storage_routes_to_milp(self, workspace, capsys):
        for params in (workspace / "fast.txt", with_bom(workspace / "fast.txt")):
            code = run(["advise", "--params", params, "--prices", workspace / "prices.csv"])
            assert code == 10
            doc = json.loads(capsys.readouterr().out)
            assert doc["recommendation"] == "solve_refined_milp"
            assert any(r["rule"] == "corollary2" and r["fired"] for r in doc["rationale"])

    def test_slow_storage_routes_to_lp(self, workspace, capsys):
        code = run(
            ["advise", "--params", workspace / "slow.txt", "--prices", workspace / "prices.csv"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["recommendation"] == "solve_lp"

    def test_final_level_flag(self, workspace, capsys):
        code = run(
            [
                "advise",
                "--params", workspace / "slow.txt",
                "--prices", workspace / "prices.csv",
                "--final-level-constrained",
            ]
        )
        assert code == 10
        doc = json.loads(capsys.readouterr().out)
        assert any(r["rule"] == "final_level" and r["fired"] for r in doc["rationale"])

    def test_params_file_errors(self, workspace, capsys):
        broken = workspace / "broken.txt"
        for text, message in (
            ("s_min = 0\nwhatever = 3\n", "line 2: unknown key 'whatever'"),
            ("# storage unit\n\n" + FAST_PARAMS + "whatever = 3\n",
             "line 12: unknown key 'whatever'"),
            (FAST_PARAMS + "rho\n", "line 10: expected key=value, got 'rho'"),
            (FAST_PARAMS + "rho = 1.0\n", "line 10: duplicate key 'rho'"),
            (FAST_PARAMS.replace("rho = 1.0", "rho = one"), "line 8: bad number for rho: 'one'"),
            (FAST_PARAMS.replace("s_max = 1", "s_max = 1_0"),
             "line 2: bad number for s_max: '1_0'"),
            (FAST_PARAMS.replace("s_max = 1", "s_max = \u0661\u0662"),
             "line 2: bad number for s_max: '\u0661\u0662'"),
            (FAST_PARAMS.replace("rho = 1.0\n", ""), "missing keys: rho"),
            (FAST_PARAMS.replace("s_min = 0", "s_min = 2"), "need 0 <= s_min < s_max"),
        ):
            broken.write_text(text)
            code = run(
                ["advise", "--params", broken, "--prices", workspace / "prices.csv"]
            )
            assert code == 2
            assert capsys.readouterr().err == f"error: {broken}: {message}\n"

    def test_missing_file(self, workspace, capsys):
        code = run(
            ["advise", "--params", workspace / "nope.txt", "--prices", workspace / "prices.csv"]
        )
        assert code == 2

class TestSolve:
    def test_lp_report_flags_scd(self, workspace, capsys):
        out = workspace / "lp"
        code = run(
            [
                "solve", "--params", workspace / "fast.txt",
                "--prices", workspace / "prices.csv",
                "--formulation", "lp", "--out", out,
            ]
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["physically_infeasible"] is True
        assert doc["scd_events"]
        assert doc["kkt_max_residual"] <= 1e-7
        plot = (out / "plot.csv").read_text().splitlines()
        assert plot[0] == "t,price,p_chg,p_dis,soe"
        assert len(plot) == 9

    def test_lp_report_repairs_costless_scd(self, tmp_path):
        # lossless storage that the advisor clears can end at an LP vertex
        # with SCD that costs nothing (42 of these 200 draws, all eta = 1):
        # the report gives a single-mode schedule at the same objective,
        # certified by its own duals, as solve_storage_lp does
        rng = np.random.default_rng(11)
        repaired = 0
        for i in range(200):
            params, prices, _, _ = lp_safe_instance(rng)
            if not lp_answer(lp.solve_lp(lp.build_lp(params, prices)), params, prices).scd_events:
                continue
            report = solve_storage_lp(params, prices)
            (tmp_path / "params.txt").write_text("".join(
                f"{key} = {getattr(params, key.removesuffix('_hours'))!r}\n" for key in PARAM_KEYS
            ))
            (tmp_path / "prices.csv").write_text("t,price_eur_per_mwh\n" + "".join(
                f"{t},{float(c)!r}\n" for t, c in enumerate(prices.prices, start=1)
            ))
            out = tmp_path / f"lp{i}"
            assert run(["solve", "--params", tmp_path / "params.txt", "--prices",
                        tmp_path / "prices.csv", "--formulation", "lp", "--out", out]) == 0
            doc = json.loads((out / "report.json").read_text())
            assert doc["scd_events"] == [] and doc["physically_infeasible"] is False
            assert doc["schedule"] == schedule_to_dict(report.schedule, params.dt)
            assert doc["objective_eur"] == report.objective
            assert doc["kkt_max_residual"] == report.kkt_max_residual <= 1e-7
            schedule, dt = schedule_from_dict(doc["schedule"])
            assert feasibility_check(params, schedule).feasible and not detect_scd(schedule)
            assert objective(prices, schedule, dt) == pytest.approx(report.objective, rel=1e-12)
            repaired += 1
        assert repaired >= 30

    def test_lp_report_omits_costless_scd_next_to_costly_scd(self, workspace):
        # the LP vertex charges and discharges at once at t = 2 (price 0,
        # no cost) and at t = 3 (price -10, a cost): only t = 3 is reported
        (workspace / "zero.csv").write_text("t,price_eur_per_mwh\n1,20\n2,0\n3,-10\n4,20\n")
        out = workspace / "lp"
        assert run(["solve", "--params", workspace / "fast.txt", "--prices",
                    workspace / "zero.csv", "--formulation", "lp", "--out", out]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert [ev["t"] for ev in doc["scd_events"]] == [3]
        assert doc["physically_infeasible"] is True
        assert doc["kkt_max_residual"] <= 1e-7

    def test_lp_hourly_year(self, tmp_path):
        # T = 8,760: the dense simplex would allocate 1.84 GB for the matrix
        (tmp_path / "params.txt").write_text(FAST_PARAMS)
        prices = np.random.default_rng(0).normal(10.0, 60.0, 8760)
        (tmp_path / "prices.csv").write_text("t,price_eur_per_mwh\n" + "".join(
            f"{t},{float(c)!r}\n" for t, c in enumerate(prices, start=1)))
        out = tmp_path / "out"
        assert run(["solve", "--params", tmp_path / "params.txt", "--prices",
                    tmp_path / "prices.csv", "--formulation", "lp", "--out", out]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["schedule"]["soe"]) == 8760 and doc["kkt_max_residual"] <= 1e-7

    def test_refined_report_structure(self, workspace):
        out = workspace / "refined"
        code = run(
            [
                "solve", "--params", workspace / "fast.txt",
                "--prices", workspace / "prices.csv",
                "--formulation", "refined", "--out", out,
            ]
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["num_binaries"] == 4
        assert doc["root_bound"] >= doc["objective_eur"] - 1e-9 * abs(doc["objective_eur"])
        assert doc["scd_events"] == []
        assert doc["physically_infeasible"] is False

    def test_dp_close_to_refined(self, workspace):
        for form in ("refined", "dp"):
            assert run(
                [
                    "solve", "--params", workspace / "fast.txt",
                    "--prices", workspace / "prices.csv",
                    "--formulation", form, "--out", workspace / form,
                ]
            ) == 0
        ref = json.loads((workspace / "refined" / "report.json").read_text())
        dp = json.loads((workspace / "dp" / "report.json").read_text())
        assert dp["objective_eur"] <= ref["objective_eur"] + 1e-9
        assert dp["objective_eur"] == pytest.approx(ref["objective_eur"], rel=0.01)

    def test_byte_determinism(self, workspace):
        for name in ("a", "b"):
            run(
                [
                    "solve", "--params", workspace / "fast.txt",
                    "--prices", workspace / "prices.csv",
                    "--formulation", "milp", "--out", workspace / name,
                ]
            )
        assert (workspace / "a" / "report.json").read_bytes() == (
            workspace / "b" / "report.json"
        ).read_bytes()
        assert (workspace / "a" / "plot.csv").read_bytes() == (
            workspace / "b" / "plot.csv"
        ).read_bytes()

    def test_grid_applies_only_to_dp(self, workspace, capsys):
        inputs = ["--params", workspace / "fast.txt", "--prices", workspace / "prices.csv"]
        for formulation in ("lp", "milp", "refined"):
            code = run(
                ["solve", *inputs, "--formulation", formulation, "--grid", 3,
                 "--out", workspace / "out"]
            )
            assert code == 2
            assert "error: --grid applies only to --formulation dp" in capsys.readouterr().err
            assert not (workspace / "out").exists()
        for grid, args in ((301, ["--grid", 301]), (801, [])):
            out = workspace / f"dp{grid}"
            assert run(["solve", *inputs, "--formulation", "dp", *args, "--out", out]) == 0
            assert json.loads((out / "report.json").read_text())["grid_points"] == grid

    def test_oversize_grid_exit_2(self, workspace, capsys):
        # 10^12 grid points: the 7 TiB state grid fails to allocate at once
        # (far beyond memory plus swap, under Linux's default overcommit)
        out = workspace / "out"
        code = run(["solve", "--params", workspace / "fast.txt", "--prices",
                    workspace / "prices.csv", "--formulation", "dp", "--grid", 10**12,
                    "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: solve: out of memory: ") and err.count("\n") == 1
        assert "7.28 TiB" in err
        assert not out.exists()

    def test_iteration_limit_exit_3(self, workspace, monkeypatch, capsys):
        from storesched import simplex

        monkeypatch.setattr(simplex, "ITERS_PER_DIM", 0)  # not one pivot allowed
        code = run(
            [
                "solve", "--params", workspace / "fast.txt",
                "--prices", workspace / "prices.csv",
                "--formulation", "refined", "--out", workspace / "out",
            ]
        )
        assert code == 3
        assert "solver error: iteration limit 0 exceeded" in capsys.readouterr().err
        assert not (workspace / "out" / "report.json").exists()

    def test_repair_not_applicable_exit_3(self, workspace, monkeypatch, capsys):
        from storesched import RepairNotApplicable, milp

        def refuse(*args, **kwargs):
            raise RepairNotApplicable("SCD at t=3 with C_t=-5.0 and eta=0.81 < 1")

        monkeypatch.setattr(milp, "repair_scd", refuse)
        code = run(
            [
                "solve", "--params", workspace / "fast.txt",
                "--prices", workspace / "prices.csv",
                "--formulation", "refined", "--out", workspace / "out",
            ]
        )
        assert code == 3
        assert "solver error" in capsys.readouterr().err

    def test_empty_tree_exit_3(self, workspace, monkeypatch, capsys):
        # the storage fits, decided before the solve, so a branch and bound
        # whose every node LP is infeasible is the solver's fault
        from dataclasses import replace

        from storesched import LpStatus, milp

        solve_lp = milp.solve_lp
        monkeypatch.setattr(milp, "solve_lp", lambda problem, warm=None: replace(
            solve_lp(problem, warm), status=LpStatus.INFEASIBLE))
        code = run(
            [
                "solve", "--params", workspace / "fast.txt",
                "--prices", workspace / "prices.csv",
                "--formulation", "refined", "--out", workspace / "out",
            ]
        )
        assert code == 3
        assert "solver error: branch and bound found no schedule" in capsys.readouterr().err
        assert not (workspace / "out" / "report.json").exists()


class TestCheck:
    def _solve_then_check(self, workspace, formulation):
        out = workspace / formulation
        run(
            [
                "solve", "--params", workspace / "fast.txt",
                "--prices", workspace / "prices.csv",
                "--formulation", formulation, "--out", out,
            ]
        )
        doc = json.loads((out / "report.json").read_text())
        sched_path = workspace / f"{formulation}_sched.json"
        sched_path.write_text(json.dumps(doc["schedule"]))
        return run(
            [
                "check", "--params", workspace / "fast.txt",
                "--prices", workspace / "prices.csv",
                "--schedule", sched_path,
            ]
        )

    def test_round_trip_milp_refined_dp(self, workspace):
        for formulation in ("milp", "refined", "dp"):
            assert self._solve_then_check(workspace, formulation) == 0

    def test_lp_with_scd_fails_check(self, workspace):
        assert self._solve_then_check(workspace, "lp") == 1

    def test_injected_recursion_violation(self, workspace, capsys):
        sched = {
            "dt_hours": 1.0,
            "p_chg": [0.0] * 8,
            "p_dis": [0.0] * 8,
            "soe": [0.5] * 8,
        }
        path = workspace / "bad_sched.json"
        path.write_text(json.dumps(sched))
        for schedule in (path, with_bom(path)):
            code = run(
                [
                    "check", "--params", workspace / "fast.txt",
                    "--prices", workspace / "prices.csv",
                    "--schedule", schedule,
                ]
            )
            assert code == 1
            assert "soe_recursion" in capsys.readouterr().out

    def test_nonfinite_entry_fails_check(self, workspace, capsys):
        sched = {
            "dt_hours": 1.0,
            "p_chg": [0.0] * 8,
            "p_dis": [0.0] * 8,
            "soe": [0.0] * 7 + [float("nan")],
        }
        path = workspace / "nan_sched.json"
        path.write_text(json.dumps(sched))
        code = run(
            [
                "check", "--params", workspace / "fast.txt",
                "--prices", workspace / "prices.csv",
                "--schedule", path,
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "feasible: False" in out
        assert "violation t=8 nonfinite_soe" in out

    def test_nan_dt_exit_2(self, workspace, capsys):
        path = workspace / "nan_dt.json"
        path.write_text(
            json.dumps({"dt_hours": float("nan"), "p_chg": [0.0] * 8,
                        "p_dis": [0.0] * 8, "soe": [0.0] * 8})
        )
        code = run(
            [
                "check", "--params", workspace / "fast.txt",
                "--prices", workspace / "prices.csv",
                "--schedule", path,
            ]
        )
        assert code == 2
        assert "dt_hours nan" in capsys.readouterr().err

    def test_nested_arrays_exit_2(self, workspace, capsys):
        prices = workspace / "one_period.csv"
        prices.write_text("t,price_eur_per_mwh\n1,10.0\n")
        path = workspace / "nested.json"
        path.write_text(
            json.dumps({"dt_hours": 1, "p_chg": [[0, 0]], "p_dis": [[0, 0]], "soe": [[0, 0]]})
        )
        code = run(
            [
                "check", "--params", workspace / "fast.txt",
                "--prices", prices,
                "--schedule", path,
            ]
        )
        assert code == 2
        assert "1-D" in capsys.readouterr().err

    def test_schema_violation_exit_2(self, workspace, capsys):
        path = workspace / "broken.json"
        seven = [0.0] * 7
        for text, message in (
            ('{"dt_hours": 1.0, "p_chg": [0.0]}', "invalid schedule document"),
            ("not json", "schedule JSON:"),
            ("[" * 200_000 + "]" * 200_000, "schedule JSON: maximum recursion depth exceeded"),
            (json.dumps({"dt_hours": 1.0, "p_chg": [10**400] * 8, "p_dis": [0] * 8,
                         "soe": [0] * 8}),
             "invalid schedule document: p_chg holds an integer beyond double precision"),
            (json.dumps({"dt_hours": 10**400, "p_chg": [0] * 8, "p_dis": [0] * 8,
                         "soe": [0] * 8}), "schedule dt_hours inf differs from params dt_hours"),
            # no number, read as one before: a numeral string, a boolean or null
            (json.dumps({"dt_hours": 1.0, "p_chg": ["0.5", "0"] * 4, "p_dis": [0] * 8,
                         "soe": [0] * 8}), "invalid schedule document: p_chg must be real numbers"),
            (json.dumps({"dt_hours": 1.0, "p_chg": [True, 0] * 4, "p_dis": [0] * 8,
                         "soe": [0] * 8}), "invalid schedule document: p_chg must be real numbers"),
            (json.dumps({"dt_hours": 1.0, "p_chg": [None, 0] * 4, "p_dis": [0] * 8,
                         "soe": [0] * 8}), "invalid schedule document: p_chg must be real numbers"),
            (json.dumps({"dt_hours": "1", "p_chg": [0] * 8, "p_dis": [0] * 8, "soe": [0] * 8}),
             "invalid schedule document: dt_hours must be a real number"),
            (json.dumps({"dt_hours": True, "p_chg": [0] * 8, "p_dis": [0] * 8, "soe": [0] * 8}),
             "invalid schedule document: dt_hours must be a real number"),
            (json.dumps({"dt_hours": 1.0, "p_chg": seven, "p_dis": seven, "soe": seven}),
             "schedule horizon 7 differs from price horizon 8"),
        ):
            path.write_text(text)
            code = run(
                [
                    "check", "--params", workspace / "fast.txt",
                    "--prices", workspace / "prices.csv",
                    "--schedule", path,
                ]
            )
            assert code == 2
            assert message in capsys.readouterr().err


class TestCompare:
    def test_table_and_csv(self, workspace, capsys):
        manifest = workspace / "manifest.csv"
        manifest.write_text(
            "params_path,prices_path,label\n"
            "fast.txt,prices.csv,fast\n"
            "slow.txt,prices.csv,slow\n"
        )
        out = workspace / "cmp.csv"
        for path in (manifest, with_bom(manifest)):
            code = run(["compare", "--manifest", path, "--out", out,
                        "--grid", "201"])
            assert code == 0
            lines = out.read_text().splitlines()
            assert lines[0].startswith("label,advice,")
            assert len(lines) == 3
            table = capsys.readouterr().out.splitlines()
            assert table[1].startswith("fast")
            assert "solve_refined_milp" in table[1]
            assert "solve_lp" in table[2]
            assert "ADVICE_UNSOUND" not in out.read_text()

    def test_unsound_advice_flagged(self, workspace, monkeypatch):
        # an advice of solve_lp on the fast storage, whose LP/MILP gap is real
        monkeypatch.setattr(cli, "advise", lambda params, part: Advice(Recommendation.SOLVE_LP, ()))
        manifest = workspace / "manifest.csv"
        manifest.write_text("params_path,prices_path,label\nfast.txt,prices.csv,fast\n")
        out = workspace / "cmp.csv"
        assert run(["compare", "--manifest", manifest, "--out", out, "--grid", "201"]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[1] == "solve_lp"
        assert row[-1] == "ADVICE_UNSOUND"

    def test_lp_earning_nothing_is_not_flagged(self, tmp_path):
        # falling prices from an empty store: the LP earns 0 and the refined
        # MILP 1.3e-15 EUR, a rounding far inside the profit unit
        # max|C_t| * energy_scale, so the advice of solve_lp is sound
        (tmp_path / "params.txt").write_text(
            "s_min = 0\ns_max = 2\ns_init = 0\np_chg_max = 2.9017\np_dis_max = 0.13906\n"
            "eta_c = 1\neta_d = 1\nrho = 1\ndt_hours = 1\n")
        falling = [44.6, 41.8, 39.0, 36.2, 33.4, 30.6, 27.8, 25.0, 22.1, 19.3, 16.5, 13.7, 10.9,
                   8.1, 5.3, 2.5]
        (tmp_path / "falling.csv").write_text("t,price_eur_per_mwh\n" + "".join(
            f"{t},{p}\n" for t, p in enumerate(falling, start=1)))
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("params_path,prices_path,label\nparams.txt,falling.csv,day\n")
        out = tmp_path / "cmp.csv"
        assert run(["compare", "--manifest", manifest, "--out", out]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[1:4] == ["solve_lp", "0.000000", "0.000000"]
        assert row[-1] == ""

    def test_empty_manifest(self, workspace, capsys):
        manifest = workspace / "empty.csv"
        manifest.write_text("params_path,prices_path,label\n")
        assert run(["compare", "--manifest", manifest]) == 0
        table = capsys.readouterr().out.splitlines()
        assert table[0].startswith("label")
        assert len(table) == 1

    def test_manifest_errors(self, workspace, capsys):
        manifest = workspace / "bad.csv"
        manifest.write_text("wrong,header\n")
        assert run(["compare", "--manifest", manifest]) == 2
        manifest.write_text("params_path,prices_path,label\nmissing.txt,prices.csv,x\n")
        assert run(["compare", "--manifest", manifest]) == 2
        manifest.write_text("params_path,prices_path,label\nfast.txt,prices.csv\n")
        assert run(["compare", "--manifest", manifest]) == 2
        assert "manifest line 2: expected 3 columns, got 2" in capsys.readouterr().err
        manifest.write_text("params_path,prices_path,label\n\nfast.txt,prices.csv\n")
        assert run(["compare", "--manifest", manifest]) == 2
        assert "manifest line 3: expected 3 columns, got 2" in capsys.readouterr().err
        manifest.write_text(f"params_path,prices_path,label\nfast.txt,prices.csv,"
                            f"{'x' * (csv.field_size_limit() + 1)}\n")
        assert run(["compare", "--manifest", manifest]) == 2
        assert "manifest line 2: field larger than field limit" in capsys.readouterr().err

    def test_broken_instance_named(self, workspace, capsys):
        # the second row's input is broken: the error names its file
        (workspace / "broken.txt").write_text(FAST_PARAMS + "whatever = 3\n")
        (workspace / "broken.csv").write_text(PRICES + "9,x\n")
        manifest = workspace / "manifest.csv"
        for row, message in (("broken.txt,prices.csv,b", "broken.txt: line 10: unknown key"),
                             ("slow.txt,broken.csv,b", "broken.csv: line 10: could not convert")):
            manifest.write_text(f"params_path,prices_path,label\nfast.txt,prices.csv,a\n{row}\n")
            assert run(["compare", "--manifest", manifest, "--grid", "201"]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"error: {workspace / message}")


class TestNoTolFlag:
    @pytest.mark.parametrize("command", ["partition", "advise", "solve", "check", "compare"])
    def test_tol_is_rejected(self, workspace, capsys, command):
        # an infeasible schedule: no tolerance from outside may let check pass it
        bad = workspace / "bad_sched.json"
        bad.write_text(
            json.dumps({"dt_hours": 1.0, "p_chg": [0.0] * 8,
                        "p_dis": [0.0] * 8, "soe": [0.5] * 8})
        )
        prices = ["--prices", workspace / "prices.csv"]
        params = ["--params", workspace / "fast.txt"]
        args = {
            "partition": prices,
            "advise": params + prices,
            "solve": params + prices + ["--formulation", "lp", "--out", workspace / "out"],
            "check": params + prices + ["--schedule", bad],
            "compare": ["--manifest", workspace / "manifest.csv"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            run([command, *args, "--tol", "nan"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err


# The CLI's edge-of-range and refusal cases, one row each in CASES, named by
# what it pins; test_cli_case runs every row.


def storage(**values):
    """FAST_PARAMS with each given key's value replaced."""
    text = FAST_PARAMS
    for key, value in values.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    return text


class Case(NamedTuple):
    """One storesched run: the files it writes, its command line, its exit code
    and its exact stderr."""

    storage: str  # the params file
    prices: tuple  # one price series per file; compare lists each in its manifest
    command: str  # the subcommand and its options; the runner adds the file options
    code: int
    stderr: str = ""  # one line, or none; {storage} stands for the params file's path
    kkt: float = 1e-7  # the bound on an LP answer's kkt_max_residual; inf: only finite


# a storage at the top of the double range, whose profits at +-1e308 EUR/MWh overflow
TOP = storage(s_max=1.7e308, s_init=8.5e307, p_chg_max=1.7e308, p_dis_max=5e-324)
HUGE, TINY = "1e308 -1e308 35", "1e-300 -1e-300 1e-300"
BIG = storage(s_max=1e300, s_init=1e300, p_chg_max=1e300, p_dis_max=1e300)
# a full-rate discharge of 1.7e308 MW over 1/6 h fits the double range
DISCHARGE = dict(s_max=1.7e308, s_init=1.7e308, p_dis_max=1.7e308, eta_c=1, rho=0.999,
                 dt_hours=1 / 6)
DP_STEP = "error: full-rate discharge step 5e-324 below grid spacing 2.125e+305"

CASES = [
    # ten hours at 1e308 MW discharge more energy than a double holds: the
    # storage is refused, not certified for the LP from a NaN worst-case level
    pytest.param(Case(storage(s_max=100, s_init=100, p_chg_max=1, p_dis_max=1e308, dt_hours=10),
                      ("-1 5 -1 5",), "advise", 2,
                      "error: {storage}: discharge_step is inf, beyond double precision"),
                 id="test_overflowing_reach_exit_2"),
    *(pytest.param(Case(storage(**{key: value}), (DAY,), "solve --formulation lp", 2,
                        f"error: {{storage}}: parameters must be finite: {field}"),
                   id=f"test_nonfinite_param_exit_2-{value}-{key}")
      for value in ("inf", "nan")
      for key, field in (("dt_hours", "dt"), ("p_chg_max",) * 2, ("p_dis_max",) * 2)),
    # ten minutes at the smallest subnormal power move no energy in double
    # precision: refused by name, where the DP would find every grid too coarse
    *(pytest.param(Case(storage(**{key: 5e-324}, dt_hours=1 / 6), (DAY,), "solve --formulation dp",
                        2, f"error: {{storage}}: {step} is 0.0, below double precision"),
                   id=f"test_underflowing_step_exit_2-{key}")
      for key, step in (("p_chg_max", "charge_step"), ("p_dis_max", "discharge_step"))),
    # at s_min = 0.5 the level leaks 0.25 per period, and a full charge adds
    # only 0.09: no schedule stays within the limits
    *(pytest.param(Case(storage(s_min=0.5, s_init=0.5, p_chg_max=0.1, rho=0.5), (DAY,),
                        f"solve --formulation {formulation}", 2,
                        "error: no schedule keeps the storage level within [s_min, s_max]"),
                   id=f"test_infeasible_storage_exit_2-{formulation}")
      for formulation in ("dp", "lp", "milp", "refined")),
    # storage of 1e300 MWh and MW at 1e10 EUR/MWh earns more than a double
    # holds; at 1e308 EUR/MWh over two periods the DP's discretization bound does
    pytest.param(Case(FAST_PARAMS, ("1e308 1e308",), "solve --formulation dp", 2,
                      "error: dp discretization_bound is inf, beyond double precision"),
                 id="test_nonfinite_result_exit_2-dp-discretization_bound"),
    *(pytest.param(Case(BIG, ("1e10 -1e10 1e10",), f"solve --formulation {formulation}", 2,
                        f"error: {formulation} objective is inf, beyond double precision"),
                   id=f"test_nonfinite_result_exit_2-{formulation}-objective")
      for formulation in ("lp", "milp", "refined")),
    # at rho = 1e-20 a balance multiplier off its level's bounds grows by
    # 1/rho a period, and overflows even in the price unit: lambda is inf,
    # and the residual NaN
    pytest.param(Case(storage(s_max=1e150, s_init=5e149, p_chg_max=1e-300, p_dis_max=1,
                              eta_c=0.5, rho=1e-20),
                      ("1e308 -35 1e-300 35 -1e308 35 1e-300 -35 0 -35 -1e308 1e-300 -1e308 "
                       "1e-300 35 1e-300 1e308",), "solve --formulation lp", 2,
                      "error: lp kkt_max_residual is nan, beyond double precision"),
                 id="test_nan_kkt_residual_exit_2"),
    # at +-1e308 EUR/MWh the upper level multiplier of t = 1 overflows in
    # EUR/MWh, but not in the price unit, where solve_storage_lp forms it
    pytest.param(Case(storage(s_max=2.714751457421659e-59, s_init=2.2878224521119755e-59,
                              p_chg_max=6.484050530603544e-60, p_dis_max=2.110013555208994e-57,
                              eta_d=1),
                      ("-1e308 1e308",), "solve --formulation lp", 0),
                 id="test_overflowing_bound_multiplier_is_certified"),
    # the charge fills the store at -1e308 EUR/MWh, so lambda_1 >= C_1/eta_c,
    # which overflows in EUR/MWh at eta_c = 0.5, but not in the price unit,
    # where the value function forms it
    pytest.param(Case(storage(s_max=1e-300, p_chg_max=1e8, p_dis_max=1e-300, eta_c=0.5, rho=0.5),
                      ("-1e308",), "solve --formulation lp", 0),
                 id="test_overflowing_bound_multiplier_is_certified-full_charge"),
    # at the one price -5e-324, max|C_t| * dt and max|C_t| * energy_scale
    # round to 0; kkt_verify forms its residuals in the price unit instead
    pytest.param(Case(storage(s_max=0.12490736390018263, p_chg_max=0.3142632448004595,
                              p_dis_max=1, eta_c=0.794921875, eta_d=0.5, rho=0.5, dt_hours=0.25),
                      ("-5e-324",), "solve --formulation lp", 0),
                 id="test_subnormal_price_is_certified"),
    # dt * P / eta_d is a double where P / eta_d is not, so the flow multiplies
    # by dt / eta_d first
    pytest.param(Case(storage(**DISCHARGE, p_chg_max=1e-8), ("1e-300",),
                      "solve --formulation lp", 0),
                 id="test_huge_discharge_is_certified"),
    # the DP's forward step forms the same flow, so its level stays a double
    pytest.param(Case(storage(**DISCHARGE, p_chg_max=1.7e308), ("1e-300",),
                      "solve --formulation dp", 0, "dp discretization bound: 236111 EUR"),
                 id="dp_huge_discharge_exit_0"),
    # unit storage against 1,000 hours at +-1e306 EUR/MWh: the storage is
    # feasible, but the DP's value table overflows
    pytest.param(Case(FAST_PARAMS, ("1e306 -1e306 " * 500,), "solve --formulation dp", 2,
                      "error: dp value table is inf, beyond double precision"),
                 id="test_dp_overflow_exit_2"),
    pytest.param(Case(BIG, ("1e10 -1e10 1e10",), "compare", 2,
                      "error: lp objective is inf, beyond double precision"),
                 id="test_nonfinite_result_exit_2-compare"),
    # through every solver, with warnings as errors: each answers or refuses by
    # name, so no solve relies on a blanket np.errstate
    pytest.param(Case(TOP, (HUGE, TINY), "compare", 2,
                      "error: lp objective is inf, beyond double precision"),
                 id="top_compare_exit_2"),
    *(pytest.param(Case(TOP, (HUGE,), f"solve --formulation {formulation}", 2,
                        f"error: {formulation} objective is inf, beyond double precision"),
                   id=f"top_huge_prices_{formulation}_exit_2")
      for formulation in ("lp", "milp", "refined")),
    pytest.param(Case(TOP, (HUGE,), "solve --formulation dp", 2, DP_STEP),
                 id="top_huge_prices_dp_exit_2"),
    *(pytest.param(Case(TOP, (TINY,), f"solve --formulation {formulation}", 0),
                   id=f"top_tiny_prices_{formulation}_exit_0")
      for formulation in ("lp", "milp", "refined")),
    pytest.param(Case(TOP, (TINY,), "solve --formulation dp", 2, DP_STEP),
                 id="top_tiny_prices_dp_exit_2"),
    # at 1.7e308 MWh the level multipliers' complementarity products overflow
    # in MWh, not in the energy unit; the answer idles where the value
    # function's tolerance allows, so its residual is only finite
    pytest.param(Case(storage(s_max=1.7e308, s_init=1.7e308, p_chg_max=1e-8, p_dis_max=1e-8,
                              eta_c=0.5, rho=0.999),
                      ("35 -35",), "solve --formulation lp", 0, kkt=math.inf),
                 id="top_level_slack_residual_is_finite"),
]


@pytest.mark.parametrize("case", CASES)
def test_cli_case(tmp_path, capsys, case):
    """A row of CASES, run in process: its exit code and exact stderr; on a
    refusal, no stdout and nothing written; on an LP answer, the residual bound."""
    params, out = tmp_path / "storage.txt", tmp_path / "out"
    params.write_text(case.storage)
    manifest = ["params_path,prices_path,label"]
    for k, series in enumerate(case.prices):
        (tmp_path / f"prices{k}.csv").write_text(price_csv(series))
        manifest.append(f"{params.name},prices{k}.csv,{k}")
    (tmp_path / "manifest.csv").write_text("\n".join(manifest) + "\n")
    inputs = ["--params", params, "--prices", tmp_path / "prices0.csv"]
    files = {"advise": inputs, "solve": [*inputs, "--out", out],
             "compare": ["--manifest", tmp_path / "manifest.csv", "--out", out]}
    command = case.command.split()
    code = run([*command, *files[command[0]]])
    stdout, stderr = capsys.readouterr()
    assert (code, stderr) == (case.code, case.stderr and case.stderr.format(storage=params) + "\n")
    if code:
        assert stdout == "" and not out.exists()
    elif case.command == "solve --formulation lp":
        residual = json.loads((out / "report.json").read_text())["kkt_max_residual"]
        assert math.isfinite(residual) and residual <= case.kkt
