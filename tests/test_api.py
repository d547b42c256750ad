import inspect
import re
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
