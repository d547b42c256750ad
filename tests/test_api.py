import inspect
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import storesched
from _instances import criterion_4_draws, fast_params, mixed_sign_prices
from storesched import lp, milp, partition, simplex, solve_storage_milp, storage, value

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block.group(1), str(README), "exec"), {})
    value, events = capsys.readouterr().out.split(" ", 1)
    assert float(value) == pytest.approx(18.5, rel=1e-12)
    assert events.strip() == "[]"


def test_no_tolerance_parameters():
    # every tolerance follows the instance it judges (storage.EPS times the
    # storage's energy scale, the simplex's TOL times its LP's scale); no
    # caller passes one
    for name in storesched.__all__:
        obj = getattr(storesched, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        assert not {"tol", "eq_tol", "eps", "atol", "rtol", "scale"} & set(params), name


# Run in a fresh interpreter: build the instances and write the CLI's files
# into the directory given, then solve each instance every way, run solve and
# compare through cli.main on a unit storage and on one at the top of the
# double range against prices whose profits overflow and prices of 1e-300,
# and print the modules that the solves and the runs imported, and the runs'
# exit codes.
IMPORT_PROBE = r"""
import contextlib
import io
import sys
from pathlib import Path
import numpy as np
from _instances import criterion_4_draws, fast_params, mixed_sign_prices
from storesched import (DpConfig, advise, cli, partition, solve_dp, solve_storage_lp,
                        solve_storage_milp)

rng = np.random.default_rng(168)
week = fast_params(rng), mixed_sign_prices(rng, 168)
instances = [next(criterion_4_draws(1))[:2], week]  # a lossy day and a fast week
parts = [partition(prices) for _, prices in instances]
files = Path(sys.argv[1])
storage = "s_min = 0\ns_max = {}\ns_init = {}\np_chg_max = {}\np_dis_max = {}\n"
storage += "eta_c = 0.9\neta_d = 0.9\nrho = 1\ndt_hours = 1\n"
(files / "unit.txt").write_text(storage.format(1, 0, 2, 2))
(files / "top.txt").write_text(storage.format(1.7e308, 8.5e307, 1.7e308, 5e-324))
for name, series in (("day", "35 28 -5 -12 30 42 38 55"), ("huge", "1e308 -1e308 35"),
                     ("tiny", "1e-300 -1e-300 1e-300")):
    (files / f"{name}.csv").write_text("t,price_eur_per_mwh\n" + "".join(
        f"{t},{c}\n" for t, c in enumerate(series.split(), 1)))
header = "params_path,prices_path,label\n"
(files / "unit.csv").write_text(header + "unit.txt,day.csv,day\n")
(files / "top.csv").write_text(header + "top.txt,huge.csv,huge\ntop.txt,tiny.csv,tiny\n")
runs = [["compare", "--manifest", files / manifest] for manifest in ("unit.csv", "top.csv")]
runs += [["solve", "--params", files / params, "--prices", files / prices, "--formulation",
          formulation, "--out", files / "out"]
         for params, prices in (("unit.txt", "day.csv"), ("top.txt", "huge.csv"),
                                ("top.txt", "tiny.csv"))
         for formulation in ("lp", "milp", "refined", "dp")]
cli.read_params_file(files / "unit.txt")  # the first utf-8-sig read imports its codec
before = set(sys.modules)
for (params, prices), part in zip(instances, parts):
    solve_storage_lp(params, prices)
    for refined in (False, True):
        solve_storage_milp(params, prices, part, refined=refined)
    solve_dp(params, prices, DpConfig())
    advise(params, part)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main([str(arg) for arg in run]) for run in runs]
print(sorted(set(sys.modules) - before), codes)
"""


def test_solvers_import_nothing(tmp_path):
    # every benchmark round and every CLI call runs in a fresh process, where
    # a first call that imports a module pays for it (numpy.ma, which the
    # first np.unique imports, costs 8-13 ms); the fast week's refined root
    # peels several singleton levels, so the factor's whole path runs
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(Path(storesched.__file__).parents[1]), str(tests)])
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(tmp_path)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[] [0, 2, 0, 0, 0, 0, 2, 2, 2, 2, 0, 0, 0, 2]\n"


def numpy_python_calls(run, modules=(simplex,)):
    """Run run() and count, by (calling function, numpy function as
    "file:function"), the calls that the modules make into numpy functions
    written in Python (frames whose file lies in numpy's package), and the
    simplex's rounds (calls of _Factor.dual)."""
    numpy_dir = os.path.dirname(np.__file__) + os.sep
    files = {module.__file__ for module in modules}
    calls, rounds = Counter(), Counter()

    def profile(frame, event, arg):
        if event != "call":
            return
        code, caller = frame.f_code, frame.f_back
        if code.co_filename == simplex.__file__ and code.co_name == "dual":
            rounds["dual"] += 1
        elif (code.co_filename.startswith(numpy_dir) and caller is not None
              and caller.f_code.co_filename in files):
            # co_qualname needs Python 3.11; the file name tells errstate's methods apart
            calls[caller.f_code.co_name, f"{os.path.basename(code.co_filename)}:{code.co_name}"] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls, rounds["dual"]


def by_caller(calls):
    return Counter(caller for caller, _ in calls.elements())


def test_simplex_hot_path_calls_no_python_level_numpy():
    # a node LP is bound by its count of numpy calls: on 60 floats np.argmax
    # costs about five times ndarray.argmax, and np.flatnonzero twice
    # .nonzero()[0].  So the pivot loop and the factor's per-pivot products
    # call ndarray methods and ufuncs only, and a round's calls do not grow
    # with its pivots
    rng = np.random.default_rng(168)
    params, prices = fast_params(rng), mixed_sign_prices(rng, 168)
    part = partition(prices)
    base = milp.build_milp(params, prices, True, part).base
    root = lp.solve_lp(base)
    assert root.iterations > 20 and root.factor.age == root.iterations  # 27 pivots, no refactor
    pivoting, pivoting_rounds = numpy_python_calls(
        lambda: solve_storage_milp(params, prices, part, refined=True))
    resolve, resolve_rounds = numpy_python_calls(lambda: lp.solve_lp(base, root))
    pivoting, resolve = by_caller(pivoting), by_caller(resolve)
    assert resolve_rounds == 1 and pivoting_rounds >= 2
    assert pivoting["_dual"] / pivoting_rounds <= resolve["_dual"] / resolve_rounds
    # a tree that branches, bounds children and flips bounds
    day, day_prices, day_part = list(criterion_4_draws(2))[1]
    branching, _ = numpy_python_calls(
        lambda: solve_storage_milp(day, day_prices, day_part, refined=False))
    for calls in (pivoting, resolve, by_caller(branching)):
        assert not {"_entering", "pivot", "row", "column", "child_bound"} & set(calls), calls


def test_lp_route_calls_no_python_level_numpy():
    # the LP answer runs once per CLI call, in a fresh process, and once per
    # benchmark op, after the calibration kernel: there a numpy function
    # written in Python (np.stack, np.append, np.sum, ndarray.max) costs
    # several times its warm call.  So solve_storage_lp, the value
    # function and the storage helpers on its path call ufuncs and ndarray
    # methods only, apart from the errstate that lets an overflow reach its
    # named refusal and np.concatenate's dispatcher, and their calls do not
    # grow with the horizon
    rng = np.random.default_rng(168)
    week = fast_params(rng), mixed_sign_prices(rng, 168)
    day = next(criterion_4_draws(1))[:2]  # lossy
    route = (lp, value, storage)
    day_calls, _ = numpy_python_calls(lambda: lp.solve_storage_lp(*day), route)
    week_calls, _ = numpy_python_calls(lambda: lp.solve_storage_lp(*week), route)
    errstate = {f"_ufunc_config.py:{name}" for name in ("__init__", "__enter__", "__exit__")}
    assert {name for _, name in day_calls} <= errstate | {"multiarray.py:concatenate"}, day_calls
    assert day_calls == week_calls


def test_one_scaled_instance_per_answer(monkeypatch):
    # storage.require_compatible derives an answer's units (and max|C_t|)
    # once, and every step of the LP answer or the MILP reads that record
    made = []
    init = storage.ScaledInstance.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(storage.ScaledInstance, "__init__", counted)
    params, prices, part = next(criterion_4_draws(1))
    assert part.t_neg  # the refined MILP branches
    lp.solve_storage_lp(params, prices)
    assert len(made) == 1
    solve_storage_milp(params, prices, part, refined=True)
    assert len(made) == 2
