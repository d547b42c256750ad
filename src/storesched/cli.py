"""Command-line surface.

Subcommands: partition, advise, solve, check, compare.  EXIT_CONTRACT
states what each exit code means; ``--help`` prints it.

All outputs are byte-deterministic given identical inputs and flags,
except the *_time_s wall-clock columns of compare.
"""

import argparse
import csv
import functools
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

from .conditions import Recommendation, advise, lemma1_classify
from .dp import DpConfig, dp_value_error_bound, solve_dp
from .lp import solve_storage_lp
from .milp import build_milp, solve_milp
from .prices import number_text, partition, read_price_csv
from .simplex import SimplexFailure
from .storage import (
    EPS,
    RepairNotApplicable,
    StorageParams,
    detect_scd,
    feasibility_check,
    require_finite,
    schedule_from_dict,
    schedule_to_dict,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_SOLVER_ERROR = 3
EXIT_SOLVE_MILP = 10

# one line per code, each a class of outcome as main decides it; the --help epilog
EXIT_CONTRACT = """\
exit codes:
  0   success; advise: the LP relaxation is safe, solve the LP
  1   check: the schedule is infeasible or charges and discharges at once
  2   input that cannot be solved as given (ValueError, OSError, MemoryError)
  3   solver invariant breach (SimplexFailure, RepairNotApplicable)
  10  advise: solve the refined MILP
on 2 or 3, the message on stderr names the cause
"""

# the file spells dt as dt_hours, as schedule JSON does
PARAM_KEYS = tuple("dt_hours" if f.name == "dt" else f.name for f in fields(StorageParams))


def read_params_file(path) -> StorageParams:
    """Flat key=value file with the keys of PARAM_KEYS; # starts a comment.
    A ValueError names the file, and the offending line where there is one
    (not for a missing key or values StorageParams rejects)."""
    values = {}
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}: line {lineno}"
            if "=" not in line:
                raise ValueError(f"{where}: expected key=value, got {line!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in PARAM_KEYS:
                raise ValueError(f"{where}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"{where}: duplicate key {key!r}")
            try:
                values[key] = number_text(text.strip())
            except ValueError:
                raise ValueError(f"{where}: bad number for {key}: {text.strip()!r}")
    missing = [k for k in PARAM_KEYS if k not in values]
    if missing:
        raise ValueError(f"{path}: missing keys: {', '.join(missing)}")
    values["dt"] = values.pop("dt_hours")
    try:
        return StorageParams(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


def _load_inputs(params_path, prices_path):
    """(params, or None without a params file; prices; their partition)."""
    params = read_params_file(params_path) if params_path else None
    prices = read_price_csv(prices_path, dt=params.dt if params is not None else 1.0)
    return params, prices, partition(prices)


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
    _, _, part = _load_inputs(None, args.prices)
    json.dump(_partition_dict(part), sys.stdout, indent=2)
    print()
    return EXIT_OK


def cmd_advise(args) -> int:
    params, _, part = _load_inputs(args.params, args.prices)
    advice = advise(params, part, final_level_constrained=args.final_level_constrained)
    json.dump(advice.to_dict(), sys.stdout, indent=2)
    print()
    if advice.recommendation is Recommendation.SOLVE_LP:
        return EXIT_OK
    return EXIT_SOLVE_MILP


def _solve_formulation(formulation, params, prices, part, grid):
    """Returns (report, extras dict for the JSON report).  grid is the dp
    grid point count, None for DpConfig's default.  A ValueError names the
    objective or solver diagnostic that is not finite."""
    if formulation == "lp":
        report = solve_storage_lp(params, prices)
        extras = {"kkt_max_residual": report.kkt_max_residual}
    elif formulation in ("milp", "refined"):
        problem = build_milp(params, prices, formulation == "refined", part)
        report, stats = solve_milp(problem)
        extras = {
            "num_binaries": problem.num_binaries,
            "nodes": stats.nodes,
            "root_bound": stats.root_bound,
            "incumbent_updates": stats.incumbent_updates,
            "gap": stats.gap,
        }
    else:
        config = DpConfig() if grid is None else DpConfig(grid)
        report = solve_dp(params, prices, config)
        extras = {"grid_points": config.grid_points}
    for name, value in {"objective": report.objective, **extras}.items():
        require_finite(f"{formulation} {name}", value)
    return report, extras


def cmd_solve(args) -> int:
    if args.grid is not None and args.formulation != "dp":
        raise ValueError("--grid applies only to --formulation dp")
    params, prices, part = _load_inputs(args.params, args.prices)
    report, extras = _solve_formulation(args.formulation, params, prices, part, args.grid)
    if args.formulation == "dp":  # only solve reports the bound, so only solve refuses on it
        config = DpConfig(extras["grid_points"])
        eps = extras["discretization_bound"] = dp_value_error_bound(params, prices, config)
        print(f"dp discretization bound: {eps:.6g} EUR", file=sys.stderr)
    extras["physically_infeasible"] = bool(report.scd_events)  # none from the dp

    doc = {
        "formulation": args.formulation,
        "status": "optimal",  # every solver raises instead of answering infeasible
        "objective_eur": report.objective,
        "scd_events": [{"t": ev.t, "p_chg": ev.p_chg_t, "p_dis": ev.p_dis_t}
                       for ev in report.scd_events],
        "schedule": schedule_to_dict(report.schedule, params.dt),
    }
    doc.update(extras)
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(text, encoding="utf-8")
    sch = report.schedule  # plot.csv's lines end in \r\n, as a csv writer's do
    rows = zip(prices.prices.tolist(), sch.p_chg.tolist(), sch.p_dis.tolist(), sch.soe.tolist())
    body = "".join(f"{t},{c!r},{pc!r},{pd!r},{s!r}\r\n" for t, (c, pc, pd, s) in enumerate(rows, 1))
    (out / "plot.csv").write_text("t,price,p_chg,p_dis,soe\r\n" + body, "utf-8", newline="")
    print(f"objective: {report.objective:.6f} EUR")
    print(f"report: {out / 'report.json'}")
    return EXIT_OK


def cmd_check(args) -> int:
    params, prices, part = _load_inputs(args.params, args.prices)
    with open(args.schedule, "r", encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
            raise ValueError(f"schedule JSON: {exc}")
    schedule, dt = schedule_from_dict(doc)
    if not abs(dt - params.dt) <= EPS * params.dt:  # NaN fails too
        raise ValueError(f"schedule dt_hours {dt} differs from params dt_hours {params.dt}")
    if len(schedule) != len(prices):
        raise ValueError(
            f"schedule horizon {len(schedule)} differs from price horizon {len(prices)}"
        )

    fea = feasibility_check(params, schedule)
    print(f"feasible: {fea.feasible}")
    for t, tag, magnitude in fea.violations:
        print(f"  violation t={t} {tag} magnitude={magnitude:.6g}")
    events = detect_scd(schedule)
    print(f"scd_events: {len(events)}")
    for ev in events:
        print(f"  scd t={ev.t} p_chg={ev.p_chg_t:.6g} p_dis={ev.p_dis_t:.6g}")
    for t in part.t_neg:
        verdict = lemma1_classify(params, prices, schedule, t)
        print(f"negative-price t={t}: {verdict.classification.value} (beta={verdict.beta_t:.6g})")
    return EXIT_CHECK_FAILED if fea.violations or events else EXIT_OK


def _read_manifest(path):
    rows = []
    base = Path(path).parent
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            if [h.strip() for h in next(reader, ())] != ["params_path", "prices_path", "label"]:
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
        except csv.Error as exc:  # such as a field over the csv module's size limit
            raise ValueError(f"manifest line {reader.line_num}: {exc}") from None
    return rows


COMPARE_COLUMNS = ["label", "advice", "lp_objective", "milp_objective", "dp_objective",
                   "lp_scd_events", "lp_time_s", "milp_time_s", "dp_time_s", "flag"]


def cmd_compare(args) -> int:
    out_rows = []
    for params_path, prices_path, label in _read_manifest(args.manifest):
        params, prices, part = _load_inputs(params_path, prices_path)
        advice = advise(params, part)
        row = {"label": label, "advice": advice.recommendation.value}
        reports = {}
        for column, formulation in (("lp", "lp"), ("milp", "refined"), ("dp", "dp")):
            t0 = time.perf_counter()
            reports[column], _ = _solve_formulation(formulation, params, prices, part, args.grid)
            row[f"{column}_time_s"] = f"{time.perf_counter() - t0:.4f}"
            row[f"{column}_objective"] = f"{reports[column].objective:.6f}"
        lp, milp = reports["lp"], reports["milp"]
        row["lp_scd_events"] = str(len(lp.scd_events))

        # solve_lp with a real gap is unsound; the unit holds at LP = 0 (kkt_verify's q * e)
        row["flag"] = ""
        if advice.recommendation is Recommendation.SOLVE_LP:
            unit = max(abs(lp.objective), float(abs(prices.prices).max()) * params.energy_scale)
            if abs(lp.objective - milp.objective) > 1e-8 * unit:
                row["flag"] = "ADVICE_UNSOUND"
        out_rows.append(row)

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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="storesched",
        description="Schedule a price-taker energy storage system against a price series.",
        epilog=EXIT_CONTRACT,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, params_required=True):
        if params_required:
            p.add_argument("--params", required=True, help="key=value storage parameter file")
        p.add_argument("--prices", required=True, help="price CSV with header t,price_eur_per_mwh")

    p = sub.add_parser("partition", help="decompose the price series by sign")
    common(p, params_required=False)

    p = sub.add_parser("advise", help="recommend LP relaxation or refined MILP")
    common(p)
    p.add_argument(
        "--final-level-constrained",
        action="store_true",
        help="route to the refined MILP, as a terminal state-of-energy level needs "
        "(no solver models that level yet)",
    )

    p = sub.add_parser("solve", help="solve one formulation, write report.json and plot.csv")
    common(p)
    p.add_argument("--formulation", required=True, choices=["lp", "milp", "refined", "dp"])
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--grid", type=int, help="dp state grid points (dp only)")

    p = sub.add_parser("check", help="verify a schedule JSON against params and prices")
    common(p)
    p.add_argument("--schedule", required=True, help="schedule JSON file")

    p = sub.add_parser("compare", help="LP vs refined MILP vs DP over a manifest of instances")
    p.add_argument("--manifest", required=True, help="CSV: params_path,prices_path,label")
    p.add_argument("--out", help="also write the comparison table to this CSV")
    p.add_argument("--grid", type=int, help="state grid points of the dp column")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up per call, so that a cmd_* function replaced after the
        # parser was built still takes effect
        return globals()[f"cmd_{args.command}"](args)
    except (OSError, ValueError) as exc:  # PriceCsvError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except MemoryError as exc:
        print(f"error: {args.command}: out of memory: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (SimplexFailure, RepairNotApplicable) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR


if __name__ == "__main__":
    sys.exit(main())
