"""The public names of `irrev`: those of `diagonal` and of the numpy-backed modules load
on first use."""

import inspect
import json
import subprocess
import sys

import pytest

import irrev

from conftest import CHILD_ENV

# dir(irrev) after a bare `import irrev`, without the underscore names.
PUBLIC = [
    "BarrierReport", "BudgetExceededError", "DegenerateInputError", "DiagonalResult",
    "ResourceLimitError", "RhoResult", "Support", "SupportDistribution", "Tensor", "Theta",
    "barrier_intermediate", "barrier_rect", "barrier_schonhage", "barriers", "better_table",
    "binary_entropy", "cw", "cw_better_barrier", "cw_big", "cw_big_entropy_argmax",
    "cw_big_marginal_entropy", "cw_big_table", "cw_laser_barrier", "cw_small_entropy_bound",
    "cw_table", "cyc", "diagonal", "dsum", "entropy", "errors", "flattening_ranks", "from_json",
    "irr_lower", "is_free_diagonal", "kron", "laser_table", "linalg", "matmul",
    "max_free_diagonal", "min_rho_over_theta", "monomial_subrank_power", "permute_legs",
    "power_support", "rank_exact", "read_tensor", "rho_grid_oracle", "rho_upper",
    "rho_upper_on_support", "tensor", "tn", "tn_entropy_bound", "tn_table", "to_json", "unit",
    "w", "z3",
]

_BARE_IMPORT_CHILD = """
import json, sys
import irrev
public = [n for n in dir(irrev) if not n.startswith("_")]
numpy_after_import = "numpy" in sys.modules
submodules = {n: getattr(irrev, n).__name__ for n in ("barriers", "diagonal", "entropy", "linalg")}
star = {}
exec("from irrev import *", star)
print(json.dumps({"public": public, "numpy_after_import": numpy_after_import,
                  "submodules": submodules,
                  "star": sorted(n for n in star if not n.startswith("_"))}))
"""


def test_bare_import_lists_every_name_and_loads_no_numpy():
    proc = subprocess.run([sys.executable, "-c", _BARE_IMPORT_CHILD], env=CHILD_ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["public"] == PUBLIC
    assert child["numpy_after_import"] is False
    assert child["submodules"] == {n: f"irrev.{n}"
                                   for n in ("barriers", "diagonal", "entropy", "linalg")}
    assert child["star"] == PUBLIC


# What `import irrev, irrev.cli` leaves unloaded: numpy, and dataclasses (with
# inspect, ast, dis and tokenize), which only diagonal and the numpy-backed
# modules use.
UNLOADED_BY_IMPORT = ("numpy", "dataclasses", "irrev.diagonal")

_LOADED_CHILD = """
import json, sys
import irrev, irrev.cli
print(json.dumps([m for m in sys.argv[1:] if m in sys.modules]))
"""


def test_package_and_cli_load_no_numpy_dataclasses_or_diagonal():
    proc = subprocess.run([sys.executable, "-c", _LOADED_CHILD, *UNLOADED_BY_IMPORT],
                          env=CHILD_ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_every_public_name_is_the_defining_modules_object():
    for name in PUBLIC:
        value = getattr(irrev, name)
        if inspect.ismodule(value):
            assert value is sys.modules[f"irrev.{name}"], name
        else:
            assert value is getattr(sys.modules[value.__module__], name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        irrev.no_such_name
    assert not hasattr(irrev, "no_such_name")
