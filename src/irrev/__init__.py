"""Irreversibility lower bounds and matrix-multiplication barriers for 3-tensors.

The names defined in the numpy-backed modules `barriers`, `entropy` and
`linalg`, and in `diagonal`, and those modules themselves, load on first use
(PEP 562).  So `import irrev` loads neither numpy nor `dataclasses` (which
`diagonal` and the numpy-backed modules use), and the CLI commands that need
no numpy do not import it.
"""

import importlib as _importlib

from .errors import BudgetExceededError, DegenerateInputError, ResourceLimitError
from .tensor import (
    Support,
    Tensor,
    cw,
    cw_big,
    cyc,
    dsum,
    from_json,
    kron,
    matmul,
    permute_legs,
    read_tensor,
    tn,
    to_json,
    unit,
    w,
    z3,
)

# Name -> the submodule that defines it, imported on first access.  A
# submodule's own name maps to itself.
_LAZY = {
    **dict.fromkeys((
        "barriers",
        "BarrierReport",
        "barrier_intermediate",
        "barrier_rect",
        "barrier_schonhage",
        "better_table",
        "cw_better_barrier",
        "cw_big_table",
        "cw_laser_barrier",
        "cw_table",
        "irr_lower",
        "laser_table",
        "min_rho_over_theta",
        "tn_table",
    ), "barriers"),
    **dict.fromkeys((
        "entropy",
        "RhoResult",
        "SupportDistribution",
        "Theta",
        "binary_entropy",
        "cw_big_entropy_argmax",
        "cw_big_marginal_entropy",
        "cw_small_entropy_bound",
        "rho_grid_oracle",
        "rho_upper",
        "rho_upper_on_support",
        "tn_entropy_bound",
    ), "entropy"),
    **dict.fromkeys(("linalg", "flattening_ranks", "rank_exact"), "linalg"),
    **dict.fromkeys((
        "diagonal",
        "DiagonalResult",
        "is_free_diagonal",
        "max_free_diagonal",
        "monomial_subrank_power",
        "power_support",
    ), "diagonal"),
}

__all__ = sorted(
    [name for name in globals() if not name.startswith("_")] + list(_LAZY)
)

__version__ = "0.1.0"


def __getattr__(name):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = _importlib.import_module(f".{module_name}", __name__)
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
