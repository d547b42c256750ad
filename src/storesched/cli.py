"""Command-line surface.

Subcommands: partition, advise, solve, check, compare.  Exit codes:

* 0  success; for advise: the relaxation is safe, solve the LP
* 1  check found an infeasible or simultaneously-charging schedule
* 2  malformed or unreadable input (CSV, params file, schedule JSON,
     manifest), or storage that no schedule keeps within its limits
* 3  internal solver invariant breach, or a leftover SCD with no
     equal-objective repair
* 10 advise: solve the refined MILP

All outputs are byte-deterministic given identical inputs and flags,
except the *_time_s wall-clock columns of compare.
"""

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from .conditions import Recommendation, advise, lemma1_classify
from .dp import DpConfig, dp_value_error_bound, solve_dp
from .lp import solve_storage_lp
from .milp import build_milp, solve_milp
from .prices import PriceCsvError, partition, read_price_csv
from .simplex import SimplexFailure
from .storage import (
    RepairNotApplicable,
    StorageParams,
    detect_scd,
    feasibility_check,
    schedule_from_dict,
    schedule_to_dict,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_SOLVER_ERROR = 3
EXIT_SOLVE_MILP = 10

PARAM_KEYS = (
    "s_min",
    "s_max",
    "s_init",
    "p_chg_max",
    "p_dis_max",
    "eta_c",
    "eta_d",
    "rho",
    "dt_hours",
)


class ParamsFileError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")


def read_params_file(path) -> StorageParams:
    """Flat key=value file with the keys of PARAM_KEYS; # starts a comment."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParamsFileError(lineno, f"expected key=value, got {line!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in PARAM_KEYS:
                raise ParamsFileError(lineno, f"unknown key {key!r}")
            if key in values:
                raise ParamsFileError(lineno, f"duplicate key {key!r}")
            try:
                values[key] = float(text.strip())
            except ValueError:
                raise ParamsFileError(lineno, f"bad number for {key}: {text.strip()!r}")
    missing = [k for k in PARAM_KEYS if k not in values]
    if missing:
        raise ParamsFileError(0, f"missing keys: {', '.join(missing)}")
    values["dt"] = values.pop("dt_hours")
    try:
        return StorageParams(**values)
    except ValueError as exc:
        raise ParamsFileError(0, str(exc))


def _load_inputs(args):
    params = read_params_file(args.params) if getattr(args, "params", None) else None
    dt = params.dt if params is not None else 1.0
    prices = read_price_csv(args.prices, dt=dt)
    return params, prices


def _partition_dict(part) -> dict:
    return {
        "t_neg": list(part.t_neg),
        "t_pos": list(part.t_pos),
        "t_zero": list(part.t_zero),
        "blocks": [{"nonneg_run": p, "neg_run": n} for p, n in part.blocks],
        "longest_neg": (
            None
            if part.longest_neg is None
            else {"start": part.longest_neg[0], "end": part.longest_neg[1]}
        ),
        "n_bar": part.n_bar,
    }


def cmd_partition(args) -> int:
    _, prices = _load_inputs(args)
    part = partition(prices)
    json.dump(_partition_dict(part), sys.stdout, indent=2)
    print()
    return EXIT_OK


def cmd_advise(args) -> int:
    params, prices = _load_inputs(args)
    part = partition(prices)
    advice = advise(params, part, final_level_constrained=args.final_level_constrained)
    json.dump(advice.to_dict(), sys.stdout, indent=2)
    print()
    if advice.recommendation is Recommendation.SOLVE_LP:
        return EXIT_OK
    return EXIT_SOLVE_MILP


def _solve_formulation(args, params, prices, part):
    """Returns (report, extras dict for the JSON report)."""
    if args.formulation == "lp":
        report = solve_storage_lp(params, prices)
        return report, {
            "kkt_max_residual": report.kkt_max_residual,
            "physically_infeasible": bool(report.scd_events),
        }
    if args.formulation in ("milp", "refined"):
        problem = build_milp(params, prices, args.formulation == "refined", part)
        report, stats = solve_milp(problem)
        return report, {
            "num_binaries": problem.num_binaries,
            "nodes": stats.nodes,
            "root_bound": stats.root_bound,
            "incumbent_updates": stats.incumbent_updates,
            "gap": stats.gap,
            "physically_infeasible": bool(report.scd_events),
        }
    config = DpConfig(grid_points=args.grid)
    report = solve_dp(params, prices, config)
    eps = dp_value_error_bound(params, prices, config)
    print(f"dp discretization bound: {eps:.6g} EUR", file=sys.stderr)
    return report, {
        "grid_points": args.grid,
        "discretization_bound": eps,
        "physically_infeasible": False,
    }


def cmd_solve(args) -> int:
    params, prices = _load_inputs(args)
    part = partition(prices)
    report, extras = _solve_formulation(args, params, prices, part)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "formulation": args.formulation,
        "status": report.status.value,
        "objective_eur": report.objective,
        "scd_events": [
            {"t": ev.t, "p_chg": ev.p_chg_t, "p_dis": ev.p_dis_t}
            for ev in (report.scd_events or [])
        ],
        "schedule": schedule_to_dict(report.schedule, params.dt),
    }
    doc.update(extras)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    with open(out / "plot.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "price", "p_chg", "p_dis", "soe"])
        sch = report.schedule
        for k in range(len(sch)):
            writer.writerow(
                [
                    k + 1,
                    repr(float(prices.prices[k])),
                    repr(float(sch.p_chg[k])),
                    repr(float(sch.p_dis[k])),
                    repr(float(sch.soe[k])),
                ]
            )
    print(f"objective: {report.objective:.6f} EUR")
    print(f"report: {out / 'report.json'}")
    return EXIT_OK


def cmd_check(args) -> int:
    params, prices = _load_inputs(args)
    with open(args.schedule, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"schedule JSON: {exc}")
    schedule, dt = schedule_from_dict(doc)
    if not abs(dt - params.dt) <= 1e-12:  # NaN fails too
        raise ValueError(f"schedule dt_hours {dt} differs from params dt_hours {params.dt}")
    if len(schedule) != len(prices):
        raise ValueError(
            f"schedule horizon {len(schedule)} differs from price horizon {len(prices)}"
        )

    fail = False
    fea = feasibility_check(params, schedule)
    print(f"feasible: {fea.feasible}")
    for t, tag, magnitude in fea.violations:
        print(f"  violation t={t} {tag} magnitude={magnitude:.6g}")
        fail = True
    events = detect_scd(schedule)
    print(f"scd_events: {len(events)}")
    for ev in events:
        print(f"  scd t={ev.t} p_chg={ev.p_chg_t:.6g} p_dis={ev.p_dis_t:.6g}")
        fail = True
    part = partition(prices)
    for t in part.t_neg:
        verdict = lemma1_classify(params, prices, schedule, t)
        print(
            f"negative-price t={t}: {verdict.classification.value} "
            f"(beta={verdict.beta_t:.6g})"
        )
    return EXIT_CHECK_FAILED if fail else EXIT_OK


def _read_manifest(path):
    rows = []
    base = Path(path).parent
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != [
            "params_path",
            "prices_path",
            "label",
        ]:
            raise ValueError("manifest line 1: expected header params_path,prices_path,label")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ValueError(f"manifest line {lineno}: expected 3 columns, got {len(row)}")
            params_path = base / row[0].strip()
            prices_path = base / row[1].strip()
            for p in (params_path, prices_path):
                if not p.exists():
                    raise ValueError(f"manifest line {lineno}: missing file {p}")
            rows.append((params_path, prices_path, row[2].strip()))
    return rows


COMPARE_COLUMNS = [
    "label",
    "advice",
    "lp_objective",
    "milp_objective",
    "dp_objective",
    "lp_scd_events",
    "lp_time_s",
    "milp_time_s",
    "dp_time_s",
    "flag",
]


def cmd_compare(args) -> int:
    rows = _read_manifest(args.manifest)
    out_rows = []
    for params_path, prices_path, label in rows:
        params = read_params_file(params_path)
        prices = read_price_csv(prices_path, dt=params.dt)
        part = partition(prices)
        advice = advise(params, part)

        t0 = time.perf_counter()
        lp = solve_storage_lp(params, prices)
        t_lp = time.perf_counter() - t0
        t0 = time.perf_counter()
        milp, _ = solve_milp(build_milp(params, prices, True, part))
        t_milp = time.perf_counter() - t0
        t0 = time.perf_counter()
        dp = solve_dp(params, prices, DpConfig(args.grid))
        t_dp = time.perf_counter() - t0

        # an advice of solve_lp with a real LP/MILP gap is a soundness bug
        flag = ""
        if advice.recommendation is Recommendation.SOLVE_LP:
            gap = abs(lp.objective - milp.objective)
            if gap > 1e-8 * max(1.0, abs(lp.objective)):
                flag = "ADVICE_UNSOUND"
        out_rows.append(
            {
                "label": label,
                "advice": advice.recommendation.value,
                "lp_objective": f"{lp.objective:.6f}",
                "milp_objective": f"{milp.objective:.6f}",
                "dp_objective": f"{dp.objective:.6f}",
                "lp_scd_events": str(len(lp.scd_events)),
                "lp_time_s": f"{t_lp:.4f}",
                "milp_time_s": f"{t_milp:.4f}",
                "dp_time_s": f"{t_dp:.4f}",
                "flag": flag,
            }
        )

    widths = {
        col: max(len(col), *(len(r[col]) for r in out_rows)) if out_rows else len(col)
        for col in COMPARE_COLUMNS
    }
    print("  ".join(col.ljust(widths[col]) for col in COMPARE_COLUMNS).rstrip())
    for r in out_rows:
        print("  ".join(r[col].ljust(widths[col]) for col in COMPARE_COLUMNS).rstrip())
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=COMPARE_COLUMNS)
            writer.writeheader()
            writer.writerows(out_rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storesched",
        description="Schedule a price-taker energy storage system against a price series.",
        epilog=(
            "exit codes: 0 ok / advise says solve the LP; 1 check failed; "
            "2 malformed or unreadable input, or storage no schedule keeps "
            "within its limits; 3 solver invariant breach or "
            "unrepairable SCD; 10 advise says solve the refined MILP"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, params_required=True):
        if params_required:
            p.add_argument("--params", required=True, help="key=value storage parameter file")
        p.add_argument("--prices", required=True, help="price CSV with header t,price_eur_per_mwh")

    p = sub.add_parser("partition", help="decompose the price series by sign")
    common(p, params_required=False)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("advise", help="recommend LP relaxation or refined MILP")
    common(p)
    p.add_argument(
        "--final-level-constrained",
        action="store_true",
        help="a terminal state-of-energy constraint will be added downstream",
    )
    p.set_defaults(func=cmd_advise)

    p = sub.add_parser("solve", help="solve one formulation, write report.json and plot.csv")
    common(p)
    p.add_argument(
        "--formulation", required=True, choices=["lp", "milp", "refined", "dp"]
    )
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--grid", type=int, default=801, help="dp state grid points")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="verify a schedule JSON against params and prices")
    common(p)
    p.add_argument("--schedule", required=True, help="schedule JSON file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("compare", help="LP vs refined MILP vs DP over a manifest of instances")
    p.add_argument("--manifest", required=True, help="CSV: params_path,prices_path,label")
    p.add_argument("--out", help="also write the comparison table to this CSV")
    p.add_argument("--grid", type=int, default=801)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PriceCsvError, ParamsFileError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (SimplexFailure, RepairNotApplicable) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR


if __name__ == "__main__":
    sys.exit(main())
