"""Generated malformed and extreme input through every subcommand: each
run ends with a documented exit code and prints no traceback.  Junk
storage parameters, and extreme storages and prices through the
advisor's library entry points, the LP, the MILPs' matrix model, the
MILPs and the DP: each call returns or raises a documented exception,
and nothing warns."""

import contextlib
import csv
import io
import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from _instances import assert_lp_certificate_as_reference, milp_inputs
from storesched import (
    Advice,
    AssumptionViolated,
    DpConfig,
    GridTooCoarse,
    InfeasibleStorage,
    LpProblem,
    NoNegativePrices,
    NotNegativePrice,
    PriceSeries,
    Schedule,
    StorageParams,
    advise,
    corollary2_inexact,
    detect_scd,
    dp_value_error_bound,
    feasibility_check,
    lemma1_classify,
    lp,
    partition,
    prop1_classify,
    propagate_soe,
    simplex,
    solve_dp,
    solve_storage_lp,
    solve_storage_milp,
    theorem1_condition1,
    theorem2_check,
    theorem3_shat,
)
from storesched.cli import PARAM_KEYS, main

EXIT_CODES = {0, 1, 2, 3, 10}
FORMULATIONS = ("lp", "milp", "refined", "dp")

# numbers at and beyond the edges of double precision, and ordinary ones
EXTREME = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300,
                           1e150, 1e300, 1.7e308, -1e300, -1.7e308])
ORDINARY = st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0, 2.0, 10.0, -10.0, 35.0, -5.0])
NUMBER = st.one_of(EXTREME, ORDINARY, st.floats(allow_nan=True, allow_infinity=True))
# what a JSON document holds that is no number: a numeral string, a boolean, null
NON_NUMBER = st.sampled_from(["0.5", "1", True, False, None])
# a number as a file spells it, or text that is no number
TOKEN = st.one_of(NUMBER.map(repr), st.sampled_from(["", "abc", "1e999", "-1e999", "nan",
                                                     "0x10", "1,5", " "]))
# the energies and powers of one storage, from subnormal to overflow scale
SCALE = st.sampled_from([5e-324, 1e-300, 1e-8, 1.0, 1e8, 1e150, 1e300, 1.7e308])
# valid grids (small, so each DP stays fast), invalid ones, and grids whose
# state array alone would take terabytes: the allocation fails at once (far
# beyond memory plus swap, under Linux's default overcommit heuristic)
GRID = st.one_of(st.none(), st.integers(2, 60), st.integers(-3, 1),
                 st.integers(10**12, 10**30))


def params_text(draw):
    """A key=value params file.  Mostly well formed: a storage of one
    energy and power scale, with up to two values extreme or junk; else
    keys missing or repeated and junk lines."""
    scale = draw(SCALE)
    values = {"s_min": 0.0, "s_max": scale, "s_init": scale / 2, "p_chg_max": 2 * scale,
              "p_dis_max": 2 * scale, "eta_c": 0.9, "eta_d": 0.9, "rho": 1.0, "dt_hours": 1.0}
    values = {key: repr(value) for key, value in values.items()}
    for key in draw(st.sets(st.sampled_from(PARAM_KEYS), max_size=2)):
        values[key] = draw(TOKEN)
    counts = {key: 1 for key in PARAM_KEYS}
    junk = []
    if draw(st.integers(0, 3)) == 0:
        counts = {key: draw(st.sampled_from([1] * 6 + [0, 2])) for key in PARAM_KEYS}
        junk = draw(st.lists(st.sampled_from(["junk", "x = 1", "=", "s_min"]), max_size=1))
    lines = [f"{key} = {values[key]}" for key in PARAM_KEYS for _ in range(counts[key])]
    return "\n".join(["# storage", *lines, *junk]) + "\n"


def prices_text(draw, prices):
    """A price CSV.  Mostly well formed, with ordinary and extreme prices;
    else a broken header, a junk price or a junk row."""
    rows = [f"{t},{p!r}" for t, p in enumerate(prices, start=1)]
    header = "t,price_eur_per_mwh"
    if draw(st.integers(0, 3)) == 0:
        header = draw(st.sampled_from([header, "t,price", "", "price"]))
        if rows:
            k = draw(st.integers(0, len(rows) - 1))
            rows[k] = draw(st.one_of(TOKEN.map(lambda p: f"{k + 1},{p}"),
                                     st.sampled_from(["9,1", "1", "a,b", ",,"])))
    return "\n".join([header, *rows]) + "\n"


def schedule_text(draw, T):
    """Schedule JSON of horizon T or near it.  Mostly well formed, with
    extreme entries; else mismatched shapes, a value that is no number,
    alone or among numbers, a missing key or no JSON."""
    array = st.lists(NUMBER, min_size=T, max_size=T)
    doc = {"dt_hours": 1.0, "p_chg": draw(array), "p_dis": draw(array), "soe": draw(array)}
    if draw(st.integers(0, 3)) == 0:
        key = draw(st.sampled_from(sorted(doc)))
        doc[key] = draw(st.one_of(NUMBER, NON_NUMBER,
                                  st.lists(st.one_of(NUMBER, NON_NUMBER), min_size=T, max_size=T),
                                  st.lists(st.lists(NUMBER, max_size=2), max_size=T + 1)))
        if draw(st.booleans()):
            del doc[key]
    text = json.dumps(doc)  # NaN and Infinity appear as those tokens
    return draw(st.sampled_from([text] * 6 + [text[:-1], "[]", "", "null"]))


@st.composite
def inputs(draw):
    """(params file, price CSV, schedule JSON) over one horizon of 0-6
    periods."""
    prices = draw(st.lists(st.one_of(ORDINARY, ORDINARY, EXTREME.filter(math.isfinite)),
                           min_size=draw(st.sampled_from([1] * 9 + [0])), max_size=6))
    return params_text(draw), prices_text(draw, prices), schedule_text(draw, len(prices))


def run(args):
    """main(args) with stdout and stderr captured: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, err.getvalue()


def assert_documented(args):
    code, err = run(args)
    assert code in EXIT_CODES, (code, err)
    assert "Traceback" not in err
    return code


def holds_no_number(text):
    """Whether a schedule JSON document's dt_hours, or an entry of one of its
    columns, is a string, a boolean or null (or dt_hours is missing)."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError):
        return False
    if not isinstance(doc, dict):
        return False
    columns = [doc.get(key) for key in ("p_chg", "p_dis", "soe")]
    values = [doc.get("dt_hours"), *(v for c in columns if isinstance(c, list) for v in c)]
    return any(v is None or isinstance(v, (bool, str)) for v in values)


# StorageParams' refusals of a storage whose energies double precision cannot hold
STEP_REFUSED = (r"(dis)?charge_step is (inf, beyond|0\.0, below) double precision|"
                r"energy_scale is \S+, below the normal double range")

# derandomized, so that every run of the suite tries the same examples
FUZZ = dict(deadline=None, derandomize=True,
            suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])


# a unit storage and two prices, for the examples whose one fault lies elsewhere
UNIT_PARAMS = ("s_min = 0\ns_max = 1\ns_init = 0.5\np_chg_max = 2\np_dis_max = 2\n"
               "eta_c = 0.9\neta_d = 0.9\nrho = 1\ndt_hours = 1\n")
TWO_PRICES = "t,price_eur_per_mwh\n1,-5.0\n2,30.0\n"


def write(tmp_path, texts):
    """The input files of one example; returns their paths."""
    paths = [tmp_path / name for name in ("params.txt", "prices.csv", "schedule.json")]
    for path, text in zip(paths, texts):
        path.write_text(text)
    return paths


# check on schedule JSON nested past the recursion limit, on integers beyond
# double precision, and on values that are no number, alone or among numbers
IDLE = {"dt_hours": 1, "p_chg": [0, 0], "p_dis": [0, 0], "soe": [0, 0]}


@example(texts=(UNIT_PARAMS, TWO_PRICES, "[" * 200_000 + "]" * 200_000), command="check",
         grid=None)
@example(texts=(UNIT_PARAMS, TWO_PRICES, json.dumps({**IDLE, "p_dis": [0, 10**400]})),
         command="check", grid=None)
@example(texts=(UNIT_PARAMS, TWO_PRICES, json.dumps({**IDLE, "dt_hours": 10**400})),
         command="check", grid=None)
@example(texts=(UNIT_PARAMS, TWO_PRICES, json.dumps({**IDLE, "p_chg": ["0.5", "0"]})),
         command="check", grid=None)
@example(texts=(UNIT_PARAMS, TWO_PRICES, json.dumps({**IDLE, "p_dis": [True, 0]})),
         command="check", grid=None)
@example(texts=(UNIT_PARAMS, TWO_PRICES, json.dumps({**IDLE, "soe": [None, 0]})),
         command="check", grid=None)
@example(texts=(UNIT_PARAMS, TWO_PRICES, json.dumps({**IDLE, "dt_hours": "1"})),
         command="check", grid=None)
@example(texts=(UNIT_PARAMS, TWO_PRICES, json.dumps({**IDLE, "dt_hours": True})),
         command="check", grid=None)
@settings(max_examples=150, **FUZZ)
@given(texts=inputs(), command=st.sampled_from(["partition", "advise", "check", *FORMULATIONS]),
       grid=GRID)
def test_every_subcommand(tmp_path, texts, command, grid):
    params, prices, schedule = write(tmp_path, texts)
    args = {"partition": ["partition"], "advise": ["advise", "--params", params],
            "check": ["check", "--params", params, "--schedule", schedule]}.get(
        command, ["solve", "--params", params, "--formulation", command, "--out", tmp_path / "out"])
    if command == "dp" and grid is not None:
        args += ["--grid", grid]
    code = assert_documented([*args, "--prices", prices])
    if command == "check" and holds_no_number(texts[2]):  # refused, never checked as numbers
        assert code == 2


# a field one character over the csv module's size limit
@example(texts=(UNIT_PARAMS, TWO_PRICES, ""), grid=None, manifest="params_path,prices_path,label\n"
         "params.txt,prices.csv," + "x" * (csv.field_size_limit() + 1) + "\n")
@settings(max_examples=40, **FUZZ)
@given(texts=inputs(), grid=GRID, manifest=st.sampled_from([
    "params_path,prices_path,label\nparams.txt,prices.csv,a\n",
    "params_path,prices_path,label\nparams.txt,prices.csv,a\nparams.txt,prices.csv\n",
    "params_path,prices_path,label\nmissing.txt,prices.csv,a\n",
    "params_path,prices_path\n", "", "params_path,prices_path,label\n",
]))
def test_compare(tmp_path, texts, grid, manifest):
    write(tmp_path, texts)
    (tmp_path / "manifest.csv").write_text(manifest)
    grid_flag = [] if grid is None else ["--grid", grid]
    assert_documented(["compare", "--manifest", tmp_path / "manifest.csv", *grid_flag])


@settings(max_examples=20, **FUZZ)
@given(grid=st.one_of(st.integers(2**63, 10**30), st.sampled_from([2**63 - 1, 2**62])),
       command=st.sampled_from(["solve", "compare"]))
def test_grid_past_the_index_range_is_named(tmp_path, grid, command):
    # numpy refuses a state grid this large with a message that names
    # nothing (or an IndexError); the error must name the grid instead
    write(tmp_path, (UNIT_PARAMS, TWO_PRICES))
    (tmp_path / "manifest.csv").write_text("params_path,prices_path,label\nparams.txt,prices.csv,a\n")
    args = {"solve": ["solve", "--params", tmp_path / "params.txt", "--prices",
                      tmp_path / "prices.csv", "--formulation", "dp", "--out", tmp_path / "out"],
            "compare": ["compare", "--manifest", tmp_path / "manifest.csv"]}[command]
    code, err = run([*args, "--grid", grid])
    assert (code, err) == (2, f"error: grid_points {grid} exceed numpy's largest array\n")


@st.composite
def advisor_inputs(draw):
    """(storage, or the ValueError that refuses it; prices; levels) with
    energies and each power at its own scale, and a sign pattern of up to
    30 periods."""
    scale = draw(SCALE)
    dt = draw(st.sampled_from([1 / 6, 0.25, 1.0, 10.0]))
    try:
        params = StorageParams(
            s_min=0.0, s_max=scale, s_init=draw(st.sampled_from([0.0, scale / 2, scale])),
            p_chg_max=draw(SCALE), p_dis_max=draw(SCALE),
            eta_c=draw(st.sampled_from([0.5, 0.9, 1.0])), eta_d=draw(st.sampled_from([0.9, 1.0])),
            rho=draw(st.sampled_from([1.0, 0.999, 0.5, 1e-20])), dt=dt)
    except ValueError as exc:
        params = exc
    signs = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=1, max_size=30))
    levels = draw(st.lists(st.sampled_from([0.0, scale, 1.7e308, math.inf, -math.inf, math.nan]),
                           min_size=len(signs), max_size=len(signs)))
    return params, PriceSeries([35.0 * c for c in signs], dt), levels


@settings(max_examples=300, **FUZZ)
@given(inputs=advisor_inputs(), final_level=st.booleans())
def test_advisor_entry_points(inputs, final_level):
    params, prices, levels = inputs
    if isinstance(params, ValueError):  # only a reach or a scale beyond double precision
        assert re.fullmatch(STEP_REFUSED, str(params))
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        part = partition(prices)
        assert isinstance(advise(params, part, final_level), Advice)
        assert isinstance(prop1_classify(params, part).exact, bool)
        assert isinstance(corollary2_inexact(params), bool)
        assert isinstance(theorem2_check(params, part), bool)
        for condition in (theorem1_condition1, theorem3_shat):
            try:
                condition(params, part)
            except (NoNegativePrices, AssumptionViolated):
                pass
        schedule = Schedule([0.0] * len(levels), [0.0] * len(levels), levels)
        for t in range(1, len(levels) + 1):
            try:
                lemma1_classify(params, prices, schedule, t)
            except NotNegativePrice:
                pass


@st.composite
def lp_inputs(draw):
    """(storage, prices) with energies and each power at its own scale, and
    prices from 0 to +-1e308; storages whose reach overflows are not drawn."""
    scale = draw(SCALE)
    dt = draw(st.sampled_from([1 / 6, 0.25, 1.0, 10.0]))
    try:
        params = StorageParams(
            s_min=0.0, s_max=scale, s_init=draw(st.sampled_from([0.0, scale / 2, scale])),
            p_chg_max=draw(SCALE), p_dis_max=draw(SCALE),
            eta_c=draw(st.sampled_from([0.5, 0.9, 1.0])), eta_d=draw(st.sampled_from([0.9, 1.0])),
            rho=draw(st.sampled_from([1.0, 0.999, 0.5, 1e-20])), dt=dt)
    except ValueError:
        params = None
    prices = draw(st.lists(st.sampled_from([0.0, 35.0, -35.0, 1e-300, 1e308, -1e308]),
                           min_size=1, max_size=30))
    return params, PriceSeries(prices, dt)


# a storage at the top of the double range: the differences of its levels
# overflow unless the LP runs its energies in a scaled unit
NEAR_OVERFLOW = (StorageParams(s_min=0.0, s_max=1.7e308, s_init=8.5e307, p_chg_max=1.7e308,
                               p_dis_max=5e-324, eta_c=0.9, eta_d=0.9, rho=1.0, dt=1.0),
                 PriceSeries([35.0], 1.0))
# a charge step near 1.7e308 MWh over a 1e-8 MWh range: its energy scale is
# the range, in whose unit the step itself overflows; the LP runs the reach
HUGE_STEP = (StorageParams(s_min=0.0, s_max=1e-8, s_init=0.0, p_chg_max=1.7e308, p_dis_max=1e-8,
                           eta_c=0.9, eta_d=0.9, rho=1.0, dt=1.0), PriceSeries([-35.0, 35.0], 1.0))


# a full-rate discharge of 1.7e308 MW over 1/6 h at eta_d = 0.9: dt * P / eta_d
# is a double, P / eta_d is not, and feasibility_check multiplies by dt / eta_d first
HUGE_DISCHARGE = StorageParams(s_min=0.0, s_max=1.7e308, s_init=1.7e308, p_chg_max=1e-8,
                               p_dis_max=1.7e308, eta_c=1.0, eta_d=0.9, rho=0.999, dt=1 / 6)
# a full store at the top of the double range: each level multiplier times its
# slack overflows in MWh, so kkt_verify forms those products in the energy unit
HUGE_LEVELS = (StorageParams(s_min=0.0, s_max=1.7e308, s_init=1.7e308, p_chg_max=1e-8,
                             p_dis_max=1e-8, eta_c=0.5, eta_d=0.9, rho=0.999, dt=1.0),
               PriceSeries([35.0, -35.0], 1.0))


# every storage drawn has s_min = 0, so idling always fits: none is refused
@example(inputs=NEAR_OVERFLOW)
@example(inputs=HUGE_STEP)
@example(inputs=(HUGE_DISCHARGE, PriceSeries([1e-300], 1 / 6)))
@example(inputs=HUGE_LEVELS)
@settings(max_examples=300, **FUZZ)
@given(inputs=lp_inputs())
def test_lp_entry_point(inputs):
    params, prices = inputs
    if params is None:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            report = solve_storage_lp(params, prices)
        except ValueError as exc:
            assert re.fullmatch(r"(dt \* price|lp objective) is \S+, beyond double precision",
                                str(exc)), str(exc)
            return
        assert feasibility_check(params, report.schedule).feasible
        assert_lp_certificate_as_reference(params, prices, report)


def test_huge_discharge_is_certified():
    # the balance residual's flow multiplies by dt / eta_d first, as
    # feasibility_check does, so the discharge that fits is no overflow there
    report = solve_storage_lp(HUGE_DISCHARGE, PriceSeries([1e-300], 1 / 6))
    assert report.kkt_max_residual <= 1e-7


def test_huge_discharge_propagates():
    # propagate_soe forms the same flow, so the LP's own schedule takes the
    # level from 1.7e308 MWh to 1.383e308 MWh without an overflow on the way
    report = solve_storage_lp(HUGE_DISCHARGE, PriceSeries([1e-300], 1 / 6))
    sch = report.schedule
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        soe = propagate_soe(HUGE_DISCHARGE, sch.p_chg, sch.p_dis)
    np.testing.assert_allclose(soe, sch.soe, rtol=1e-15)
    assert soe[0] == pytest.approx(0.999 * 1.7e308 - 1.7e308 / 6 / 0.9, rel=1e-15)


def test_dp_huge_discharge_stays_finite():
    # a full-rate discharge near 1.7e308 MW over 1/6 h: the DP's forward step
    # forms the flow with dt / eta_d first, so its level stays a double and
    # the schedule is feasible; the LP certifies 2.83e7 EUR on the same input
    params = StorageParams(s_min=0.0, s_max=1.7e308, s_init=1.7e308, p_chg_max=1.7e308,
                           p_dis_max=1.7e308, eta_c=1.0, eta_d=0.9, rho=0.999, dt=1 / 6)
    prices = PriceSeries([1e-300], 1 / 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solve_dp(params, prices, DpConfig())
    assert report.schedule.soe[0] == pytest.approx(1.3855e308, rel=1e-12)
    assert feasibility_check(params, report.schedule).feasible
    assert report.objective <= solve_storage_lp(params, prices).objective


@st.composite
def dp_inputs(draw):
    """(storage, prices or the ValueError that refuses them, grid points)
    with energies and each power at its own scale, prices from 0 to +-1e308
    with NaN, +-inf or none among them, the prices' dt now and then not the
    storage's, and grids of 2 to 2,001 points, or invalid ones."""
    params, _ = draw(lp_inputs())
    dt = params.dt if params is not None and draw(st.integers(0, 4)) else 0.5
    prices = draw(st.lists(st.sampled_from([0.0, 35.0, -35.0, 1e-300, 1e308, -1e308]),
                           max_size=30))
    if draw(st.integers(0, 4)) == 0:
        prices.insert(draw(st.integers(0, len(prices))), draw(st.sampled_from(
            [math.nan, math.inf, -math.inf])))
    try:
        prices = PriceSeries(prices, dt)
    except ValueError as exc:
        prices = exc
    grid = draw(st.one_of(st.integers(2, 2001), st.sampled_from([1, 0, 2.5, True])))
    return params, prices, grid


@settings(max_examples=300, **FUZZ)
@given(inputs=dp_inputs())
def test_dp_entry_point(inputs):
    params, prices, grid = inputs
    if isinstance(prices, ValueError):  # NaN, inf or no price at all
        assert str(prices) in ("prices must be finite", "prices must be a non-empty 1-D sequence")
        return
    if params is None:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            config = DpConfig(grid)
        except ValueError as exc:
            assert str(exc).startswith("grid_points must be an integer in [2, ")
            return
        try:
            report = solve_dp(params, prices, config)
        except (GridTooCoarse, InfeasibleStorage):
            return
        except ValueError as exc:
            assert re.fullmatch(r"prices dt \S+ differs from params dt \S+"
                                r"|grid spacing of \d+ points on \[s_min, s_max\] is 0"
                                r"|(dt \* price|dp (value table|gain at level \S+|objective)) "
                                r"is \S+, beyond double precision", str(exc)), str(exc)
            return
        assert math.isfinite(report.objective)
        assert feasibility_check(params, report.schedule).feasible
        try:
            assert dp_value_error_bound(params, prices, config) >= 0.0
        except ValueError as exc:
            assert str(exc) == "dp discretization_bound is inf, beyond double precision"


# a storage of unit capacity and half-unit powers, up to three of whose fields
# a draw replaces with junk: NaN, +-inf, 0, negative, subnormal, beyond the
# field's range, a power so small that a short period moves no energy, no real
# number (None, complex, strings), or an integer beyond double precision
UNIT_STORAGE = dict(s_min=0.0, s_max=1.0, s_init=0.5, p_chg_max=0.5, p_dis_max=0.5, eta_c=0.9,
                    eta_d=0.9, rho=0.999)
JUNK = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e-310,
                        1.0000000000000002, 1.5, 1e308, None, 1 + 0j, "abc", "1", 10**400,
                        True, np.True_])
PARAMS_REFUSED = (r"parameters must be finite: [a-z_, ]+|[a-z_]+ must be a real number"
                  r"|need 0 <= s_min < s_max"
                  r"|need s_min <= s_init <= s_max|power limits must be positive"
                  r"|dt must be positive|(eta_c|eta_d|rho) must be in \(0, 1\]|" + STEP_REFUSED)


@st.composite
def storage_fields(draw):
    fields = dict(UNIT_STORAGE, dt=draw(st.sampled_from([1 / 6, 0.25, 1.0, 10.0])))
    for name in draw(st.sets(st.sampled_from(sorted(fields)), max_size=3)):
        fields[name] = draw(JUNK)
    return fields


@example(fields=dict(UNIT_STORAGE, dt=1.0, eta_c=True))
@example(fields=dict(UNIT_STORAGE, dt=1.0, s_max=np.True_))
@settings(max_examples=400, **FUZZ)
@given(fields=storage_fields())
def test_storage_params_entry_point(fields):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            params = StorageParams(**fields)
        except ValueError as exc:
            assert re.fullmatch(PARAMS_REFUSED, str(exc)), str(exc)
            return
        assert all(type(v) in (int, float) for v in fields.values())  # no bool, str, None
        assert 0 < params.charge_step < math.inf and 0 < params.discharge_step < math.inf
        assert params.energy_scale >= sys.float_info.min


@settings(max_examples=300, **FUZZ)
@given(inputs=dp_inputs())
def test_build_lp_entry_point(inputs):
    params, prices, _ = inputs
    if isinstance(prices, ValueError) or params is None:  # refused before build_lp sees them
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        part = partition(prices)
        try:
            problem = lp.build_lp(params, prices, part.t_neg)
        except ValueError as exc:
            assert re.fullmatch(r"prices dt \S+ differs from params dt \S+"
                                r"|dt \* price is inf, beyond double precision", str(exc)), str(exc)
            return
        T, K = len(prices), len(part.t_neg)
        assert isinstance(problem, LpProblem) and problem.a.shape == (T + 2 * K, 3 * T + 2 * K)
        start = lp._duration_start(problem)  # which always factors
        simplex._Factor(problem.a, np.flatnonzero(start == simplex.BASIC))


@settings(max_examples=150, **FUZZ)
@given(inputs=milp_inputs())
def test_milp_entry_point(inputs):
    # the full and the refined MILP refuse alike or answer alike, within
    # their root bound, with a feasible schedule free of simultaneous charge
    # and discharge
    params, prices = inputs
    part = partition(prices)
    answers = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for refined in (False, True):
            try:
                report, stats = solve_storage_milp(params, prices, part, refined=refined)
            except InfeasibleStorage:
                answers.append(None)
                continue
            assert report.objective <= stats.root_bound + 1e-9 * max(1.0, abs(stats.root_bound))
            assert feasibility_check(params, report.schedule).feasible
            assert report.scd_events == [] == detect_scd(report.schedule)
            answers.append(report.objective)
    if None in answers:
        assert answers == [None, None]
    else:
        assert abs(answers[0] - answers[1]) <= 1e-9 * max(1.0, abs(answers[0]))


MILP_REFUSED = r"(dt \* price|(milp|refined) objective) is \S+, beyond double precision"


@example(inputs=NEAR_OVERFLOW)
@example(inputs=HUGE_STEP)
@example(inputs=(HUGE_DISCHARGE, PriceSeries([1e-300] * 3, 1 / 6)))
# 1e-300 MWh of level range, a 1 MW discharge: the refined search judges SCD at
# the negative prices by their own power scale, not by t = 6's, which netting lowers
@example(inputs=(StorageParams(s_min=0.0, s_max=1e-300, s_init=0.0, p_chg_max=1.7e308,
                               p_dis_max=1.0, eta_c=0.9, eta_d=1.0, rho=1.0, dt=1.0),
                 PriceSeries([0.0, 1e-300, -1e308, -1e308, -1e308, 1e308], 1.0)))
@settings(max_examples=150, **FUZZ)
@given(inputs=lp_inputs())
def test_milp_over_the_double_range(inputs):
    # test_milp_entry_point's assertions on storages and prices from 5e-324
    # to 1.7e308, each gap in units of max|C_t| * energy_scale, divided by
    # one and then the other so that neither product overflows or rounds to
    # 0; or both MILPs refuse alike, by name.  The branch and bound computes
    # in storage.require_compatible's units, and nothing warns
    params, prices = inputs
    if params is None:
        return
    part, q = partition(prices), float(np.abs(prices.prices).max()) or 1.0  # a float: no warning
    answers = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for refined in (False, True):
            try:
                report, stats = solve_storage_milp(params, prices, part, refined=refined)
            except InfeasibleStorage:
                answers.append("infeasible")
                continue
            except ValueError as exc:
                assert re.fullmatch(MILP_REFUSED, str(exc)), str(exc)
                answers.append("overflow")
                continue
            assert (report.objective - stats.root_bound) / params.energy_scale / q <= 1e-9
            assert feasibility_check(params, report.schedule).feasible
            assert report.scd_events == [] == detect_scd(report.schedule)
            answers.append(report.objective)
    if str in map(type, answers):
        assert answers[0] == answers[1]
    else:
        assert abs(answers[0] - answers[1]) / params.energy_scale / q <= 1e-9


# a storage that keeps 1e-20 of its level a period: its level range, rescaled
# to [rho*s_min, rho*s_max], is far narrower than the rounding of the value
# function's merged lists
TINY_RHO = StorageParams(s_min=0.0, s_max=1e-3, s_init=2.5e-4, p_chg_max=1e-3, p_dis_max=1e-3,
                         eta_c=0.5, eta_d=0.9, rho=1e-20, dt=1 / 6)


@example(inputs=(TINY_RHO, PriceSeries([0.0, 0.0], 1 / 6)))
@example(inputs=(TINY_RHO, PriceSeries([0.0, -35.0, 0.0], 1 / 6)))
@settings(max_examples=150, **FUZZ)
@given(inputs=milp_inputs())
def test_lp_certificate_entry_point(inputs):
    # the LP answers every storage that some schedule fits with a feasible
    # schedule and multipliers that certify it.  It is not compared with the
    # refined MILP here: the simplex's tolerance lets a MILP schedule sit
    # just outside the limits, above the LP optimum
    params, prices = inputs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            report = solve_storage_lp(params, prices)
        except InfeasibleStorage:  # the rule's verdict, checked in test_storage.py
            return
    assert report.kkt_max_residual <= 1e-7
    assert feasibility_check(params, report.schedule).feasible


# prices as a caller might pass them: numbers with NaN and +-inf among them,
# none at all, nested lists (ragged or not), text, booleans, None and
# complex numbers
PRICE_ITEM = st.one_of(NUMBER, st.sampled_from(["35.0", "abc", None, 1 + 2j, complex(35.0, 0.0),
                                                True, False, np.True_]))
PRICES = st.one_of(st.lists(NUMBER, max_size=6),
                   st.lists(st.lists(NUMBER, min_size=1, max_size=3), min_size=1, max_size=3),
                   st.lists(PRICE_ITEM, min_size=1, max_size=6))
DT = st.one_of(NUMBER, st.sampled_from([1, 0, -1, 10**400, None, "1", "abc", 1 + 0j, [1.0],
                                        True, np.True_]))
PRICES_REFUSED = ("prices must be real numbers", "prices must be a non-empty 1-D sequence",
                  "prices must be finite")
DT_REFUSED = ("dt must be a real number", "dt must be finite and positive")


def finite_positive(value):
    try:
        return 0 < float(value) < math.inf
    except OverflowError:
        return False


@example(prices=[True, 0.0], dt=1.0)
@example(prices=[np.True_, 1.5], dt=1.0)
@example(prices=[35.0], dt=True)
@example(prices=[35.0], dt=np.True_)
@settings(max_examples=300, **FUZZ)
@given(prices=PRICES, dt=DT)
def test_price_series_entry_point(prices, dt):
    # a non-empty list of finite floats and one finite positive real dt make
    # a series; anything else is refused by a ValueError naming its field
    real_prices = bool(prices) and all(type(v) is float and math.isfinite(v) for v in prices)
    real_dt = type(dt) in (int, float) and finite_positive(dt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            series = PriceSeries(prices, dt)
        except ValueError as exc:
            assert str(exc) in (DT_REFUSED if real_prices else PRICES_REFUSED), str(exc)
            assert not (real_prices and real_dt)
            return
    assert real_prices and real_dt
    assert series.prices.dtype == float and series.prices.tolist() == prices
    assert type(series.dt) is float and series.dt == dt


SCHEDULE_ENTRY = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, 0.25, 0.5])


@st.composite
def schedule_columns(draw):
    """p_chg, p_dis and soe of one length from 1 to 12."""
    T = draw(st.integers(1, 12))
    return [draw(st.lists(SCHEDULE_ENTRY, min_size=T, max_size=T)) for _ in range(3)]


@settings(max_examples=300, **FUZZ)
@given(columns=schedule_columns(), dt=st.sampled_from([1 / 6, 0.25, 1.0, 10.0]))
def test_feasibility_check_entry_point(columns, dt):
    # NaN, +-inf and 1e308 entries are reported, never raised or warned about:
    # each nonfinite entry as a nonfinite_* violation of its period
    params = StorageParams(**UNIT_STORAGE, dt=dt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = feasibility_check(params, Schedule(*columns))
    nonfinite = {(t + 1, tag) for column, tag in zip(columns, ("nonfinite_pc", "nonfinite_pd",
                                                                "nonfinite_soe"))
                 for t, v in enumerate(column) if not math.isfinite(v)}
    assert {(t, tag) for t, tag, _ in report.violations if tag.startswith("nonfinite")} == nonfinite
    if any(abs(v) >= 1e308 or v != v for column in columns for v in column):
        assert not report.feasible


# columns of floats, of nested lists, of integers beyond double precision, or
# of values that are no number, alone or ahead of numbers
@example(lengths=(1, 1, 1), entry=10**400, mixed=False)
@example(lengths=(2, 2, 2), entry=True, mixed=True)
@example(lengths=(2, 2, 2), entry=np.True_, mixed=True)
@example(lengths=(1, 1, 1), entry="1", mixed=False)
@settings(max_examples=100, **FUZZ)
@given(lengths=st.tuples(*[st.integers(0, 3)] * 3),
       entry=st.sampled_from([0.0, [0.0], 10**400, "1", True, np.True_, None, 1 + 0j]),
       mixed=st.booleans())
def test_misshaped_schedule_refused(lengths, entry, mixed):
    columns = [[entry] + [1.5] * (n - 1) if mixed and n else [entry] * n for n in lengths]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if type(entry) is float and len(set(lengths)) == 1 and lengths[0] > 0:
            assert len(Schedule(*columns)) == lengths[0]
            return
        with pytest.raises(ValueError, match="1-D arrays|share one length|at least one period|"
                           "(p_chg|p_dis|soe) holds an integer beyond double precision|"
                           "(p_chg|p_dis|soe) must be real numbers"):
            Schedule(*columns)
