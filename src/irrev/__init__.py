"""Irreversibility lower bounds and matrix-multiplication barriers for 3-tensors."""

from .barriers import (
    BarrierReport,
    barrier_intermediate,
    barrier_rect,
    barrier_schonhage,
    better_table,
    cw_better_barrier,
    cw_big_table,
    cw_laser_barrier,
    cw_table,
    irr_lower,
    laser_table,
    min_rho_over_theta,
    tn_table,
)
from .diagonal import (
    DiagonalResult,
    PowerDiagonalResult,
    is_free_diagonal,
    max_free_diagonal,
    monomial_subrank_power,
    power_support,
)
from .entropy import (
    RhoResult,
    SupportDistribution,
    Theta,
    binary_entropy,
    cw_big_entropy_argmax,
    cw_big_marginal_entropy,
    cw_small_entropy_bound,
    entropy_bits,
    marginal,
    rho_grid_oracle,
    rho_upper,
    rho_upper_on_support,
)
from .errors import BudgetExceededError, DegenerateInputError, ResourceLimitError
from .linalg import flattening_ranks, rank_exact
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

__version__ = "0.1.0"
