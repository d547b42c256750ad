import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import storesched

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


# Run in a fresh interpreter: build the instances, then solve each one every
# way and print the modules that the solves imported.
IMPORT_PROBE = """
import sys
import numpy as np
from _instances import criterion_4_draws, fast_params, mixed_sign_prices
from storesched import (DpConfig, advise, partition, solve_dp, solve_storage_lp,
                        solve_storage_milp)

rng = np.random.default_rng(168)
week = fast_params(rng), mixed_sign_prices(rng, 168)
instances = [next(criterion_4_draws(1))[:2], week]  # a lossy day and a fast week
parts = [partition(prices) for _, prices in instances]
before = set(sys.modules)
for (params, prices), part in zip(instances, parts):
    solve_storage_lp(params, prices)
    for refined in (False, True):
        solve_storage_milp(params, prices, part, refined=refined)
    solve_dp(params, prices, DpConfig())
    advise(params, part)
print(sorted(set(sys.modules) - before))
"""


def test_solvers_import_nothing():
    # every benchmark round and every CLI call runs in a fresh process, where
    # a first call that imports a module pays for it (numpy.ma, which the
    # first np.unique imports, costs 8-13 ms); the fast week's refined root
    # peels several singleton levels, so the factor's whole path runs
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(Path(storesched.__file__).parents[1]), str(tests)])
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
