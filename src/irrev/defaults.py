"""Default tolerances and budgets, in a module that imports nothing, so that
the CLI's parsers can show them without loading the modules that use them."""

# Entropy optimizer (`entropy`): stopping gap and iteration budget.
DEFAULT_TOL = 1e-10
DEFAULT_ITER_BUDGET = 10**6

# Grid oracle (`entropy.rho_grid_oracle`): resolution.
DEFAULT_RESOLUTION = 1000

# Free-diagonal search (`diagonal`): node budget.
DEFAULT_NODE_BUDGET = 10**8
