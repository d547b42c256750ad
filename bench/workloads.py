"""The three workloads: seeded set-up, one timed op, its verification.

Each workload draws a fixed scenario pool from its own stream seed and
multiplies every price by a small log-normal factor drawn from the run's
seed, so that every seed brings new prices but an equal amount of work
(see README.md for why).  Ops call the package through module attributes
(storesched.milp.solve_storage_milp, storesched.cli.main, ...), so that
the wrappers of tracing.py see them.  Verification uses functions bound
at import time and is neither timed nor traced.
"""

import contextlib
import csv
import io
import json
import signal
import time
from dataclasses import dataclass

import numpy as np

from storesched import cli, conditions, lp, milp, prices
from storesched.conditions import Recommendation
from storesched.storage import detect_scd, feasibility_check, objective

from instances import (
    LADDER_HORIZONS,
    bnb_instance,
    jitter,
    ladder_pair,
    lossy_params,
    mixed_sign_prices,
)

# Wall budgets, enforced from outside by a signal timer.  The ladder's is
# the "exact answer for an hourly week within seconds" target; elsewhere
# the budget only keeps a runaway solve from hanging the run.
LADDER_BUDGET_S = 6.0
GUARD_BUDGET_S = 30.0
JITTER = 0.001  # log-normal price scale drawn from the run's seed
KKT_TOL = 1e-7

BNB_STREAM_SEED = 2026  # the criterion-4 stream
BNB_POOL = 30
LADDER_STREAM_SEED = 168
CLI_STREAM_SEED = 24
CLI_POOL = 12


class BudgetExceeded(BaseException):
    """An op ran past its wall budget.  Derived from BaseException so that
    no handler inside the package can swallow it."""


@contextlib.contextmanager
def budget(seconds):
    def fire(signum, frame):
        raise BudgetExceeded()

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class OpResult:
    seconds: float
    status: str  # "ok", "timeout", "error" (exception) or "wrong" (verification)
    objectives: tuple = ()
    detail: str = ""
    bytes_written: int = 0


@dataclass
class Workload:
    labels: list
    run_op: object  # callable(index) -> OpResult


def _rel_gap(a, b):
    return abs(a - b) / max(1.0, abs(a))


def _schedule_problems(params, prices_, report):
    """Physical checks of an exact schedule: feasible, SCD-free, and its
    recomputed profit equal to the reported objective."""
    sch = report.schedule
    problems = []
    if not feasibility_check(params, sch).feasible:
        problems.append("infeasible schedule")
    if detect_scd(sch):
        problems.append("simultaneous charge and discharge")
    if _rel_gap(objective(prices_, sch, params.dt), report.objective) > 1e-9:
        problems.append("objective differs from the schedule's profit")
    return problems


def _timed(call, limit):
    """Run call() under a wall budget of limit seconds; returns (seconds,
    value, status, detail)."""
    t0 = time.perf_counter()
    try:
        with budget(limit):
            value = call()
    except BudgetExceeded:
        return time.perf_counter() - t0, None, "timeout", f"budget {limit} s"
    except Exception as exc:  # the op boundary: record and keep going
        return time.perf_counter() - t0, None, "error", repr(exc)
    return time.perf_counter() - t0, value, "ok", ""


def bnb_mixed(seed, workdir):
    base = np.random.default_rng(BNB_STREAM_SEED)
    noise = np.random.default_rng(seed)
    instances = []
    for _ in range(BNB_POOL):
        params, series = bnb_instance(base)
        series = jitter(series, noise, JITTER)
        instances.append((params, series, prices.partition(series)))
    ops = [(i, refined) for i in range(BNB_POOL) for refined in (False, True)]
    first = {}  # instance -> objective of whichever variant completed first

    def run_op(k):
        i, refined = ops[k]
        params, series, part = instances[i]
        seconds, value, status, detail = _timed(
            lambda: milp.solve_storage_milp(params, series, part, refined=refined), GUARD_BUDGET_S
        )
        if status != "ok":
            return OpResult(seconds, status, detail=detail)
        report = value[0]
        problems = _schedule_problems(params, series, report)
        other = first.setdefault(i, report.objective)
        if _rel_gap(other, report.objective) > 1e-9:
            problems.append(f"full and refined objectives differ: {other!r}, {report.objective!r}")
        return OpResult(seconds, "wrong" if problems else "ok", (report.objective,),
                        "; ".join(problems))

    labels = [f"{i:02d}-{'refined' if r else 'full'}-T{len(instances[i][1])}" for i, r in ops]
    return Workload(labels, run_op)


def horizon_ladder(seed, workdir):
    base = np.random.default_rng(LADDER_STREAM_SEED)
    noise = np.random.default_rng(seed)
    cases = []
    for T in LADDER_HORIZONS:
        series, fast, slow = ladder_pair(base, T)
        series = jitter(series, noise, JITTER)
        cases.append((f"T{T}-fast", fast, series, Recommendation.SOLVE_REFINED_MILP))
        cases.append((f"T{T}-slow", slow, series, Recommendation.SOLVE_LP))

    def flow(params, series):
        part = prices.partition(series)
        advice = conditions.advise(params, part)
        lp_report = lp.solve_storage_lp(params, series)
        milp_report = None
        if advice.recommendation is Recommendation.SOLVE_REFINED_MILP:
            milp_report, _ = milp.solve_storage_milp(params, series, part, refined=True)
        return advice, lp_report, milp_report

    def run_op(k):
        label, params, series, expected = cases[k]
        seconds, value, status, detail = _timed(lambda: flow(params, series), LADDER_BUDGET_S)
        if status != "ok":
            return OpResult(seconds, status, detail=detail)
        advice, lp_report, milp_report = value
        problems = []
        if advice.recommendation is not expected:
            problems.append(f"advice {advice.recommendation.value}, expected {expected.value}")
        if not lp_report.kkt_max_residual <= KKT_TOL:
            problems.append(f"KKT residual {lp_report.kkt_max_residual!r}")
        objectives = (lp_report.objective,)
        if milp_report is not None:
            problems += _schedule_problems(params, series, milp_report)
            bound = lp_report.objective + 1e-9 * max(1.0, abs(lp_report.objective))
            if milp_report.objective > bound:
                problems.append("MILP objective above the LP bound")
            objectives += (milp_report.objective,)
        return OpResult(seconds, "wrong" if problems else "ok", objectives, "; ".join(problems))

    return Workload([c[0] for c in cases], run_op)


# the documented params-file keys, spelled out here so that the benchmark's
# input files do not follow edits to the package
PARAM_KEYS = ("s_min", "s_max", "s_init", "p_chg_max", "p_dis_max", "eta_c", "eta_d", "rho",
              "dt_hours")


def cli_compare(seed, workdir):
    base = np.random.default_rng(CLI_STREAM_SEED)
    noise = np.random.default_rng(seed)
    dirs = []
    for i in range(CLI_POOL):
        params = lossy_params(base)
        series = jitter(mixed_sign_prices(base, 24), noise, JITTER)
        d = workdir / f"day{i:02d}"
        d.mkdir(parents=True)
        (d / "params.txt").write_text("".join(
            f"{key}={getattr(params, key.removesuffix('_hours'))!r}\n" for key in PARAM_KEYS
        ))
        (d / "prices.csv").write_text(
            "t,price_eur_per_mwh\n"
            + "".join(f"{t},{float(c)!r}\n" for t, c in enumerate(series.prices, start=1))
        )
        (d / "manifest.csv").write_text(
            f"params_path,prices_path,label\nparams.txt,prices.csv,day{i:02d}\n"
        )
        dirs.append(d)

    def calls(d):
        inputs = ["--params", str(d / "params.txt"), "--prices", str(d / "prices.csv")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc_compare = cli.main(["compare", "--manifest", str(d / "manifest.csv"),
                                   "--out", str(d / "compare.csv")])
            rc_solve = cli.main(["solve", *inputs, "--formulation", "refined",
                                 "--out", str(d / "out")])
            report = json.loads((d / "out" / "report.json").read_text())
            (d / "schedule.json").write_text(json.dumps(report["schedule"]))
            rc_check = cli.main(["check", *inputs, "--schedule", str(d / "schedule.json")])
        return (rc_compare, rc_solve, rc_check), report

    def run_op(k):
        d = dirs[k]
        seconds, value, status, detail = _timed(lambda: calls(d), GUARD_BUDGET_S)
        if status != "ok":
            return OpResult(seconds, status, detail=detail)
        codes, report = value
        written = sum((d / f).stat().st_size
                      for f in ("compare.csv", "out/report.json", "out/plot.csv"))
        if codes != (0, 0, 0):
            return OpResult(seconds, "wrong", detail=f"exit codes {codes}", bytes_written=written)
        with open(d / "compare.csv", encoding="utf-8", newline="") as fh:
            row = next(csv.DictReader(fh))
        lp_obj, milp_obj, dp_obj = (
            float(row[c]) for c in ("lp_objective", "milp_objective", "dp_objective")
        )
        problems = []
        if f"{report['objective_eur']:.6f}" != row["milp_objective"]:
            problems.append(
                f"report objective {report['objective_eur']!r} != {row['milp_objective']}"
            )
        # the columns carry six decimals
        if dp_obj > milp_obj + 1e-6 or milp_obj > lp_obj + 1e-6:
            problems.append(f"sandwich DP {dp_obj} <= MILP {milp_obj} <= LP {lp_obj} broken")
        if row["flag"]:
            problems.append(f"compare flag {row['flag']}")
        objectives = (lp_obj, milp_obj, dp_obj, report["objective_eur"])
        return OpResult(seconds, "wrong" if problems else "ok", objectives, "; ".join(problems),
                        written)

    return Workload([d.name for d in dirs], run_op)


WORKLOADS = {"bnb_mixed": bnb_mixed, "horizon_ladder": horizon_ladder, "cli_compare": cli_compare}
