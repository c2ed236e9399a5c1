"""Layer tracing for the irrev benchmark, from outside the package.

Each layer is one package module; its public entry points are wrapped so
that every call records a span (name, start, end, parent span, job id).
Modules import each other's functions by name (barriers calls rho_upper,
flattening_ranks and cyc directly), so a wrapper replaces the function in
every irrev namespace that holds it.  Span times are CPU seconds of the
worker process and its children, like the end-to-end times.  Spans stay in
memory; the work counts are derived from the recorded arguments and results
after the pass, so no counting happens inside a timed span.  A function
that no longer exists is skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import inspect
import sys

import checks
from clock import cpu_seconds

# (span name, module, function)
LAYER_FUNCTIONS = [
    ("cli", "cli", "main"),
    ("tensor.read", "tensor", "read_tensor"),
    ("tensor.cyc", "tensor", "cyc"),
    ("linalg.rank", "linalg", "flattening_ranks"),
    ("entropy.rho", "entropy", "rho_upper"),
    ("entropy.oracle", "entropy", "rho_grid_oracle"),
    ("barriers.irr", "barriers", "irr_lower"),
    ("barriers.theta", "barriers", "min_rho_over_theta"),
    ("barriers.rect", "barriers", "barrier_rect"),
    ("barriers.table", "barriers", "cw_table"),
    ("barriers.table", "barriers", "cw_big_table"),
    ("barriers.table", "barriers", "tn_table"),
    ("barriers.table", "barriers", "laser_table"),
    ("barriers.table", "barriers", "better_table"),
    ("diagonal.power", "diagonal", "power_support"),
    ("diagonal.search", "diagonal", "max_free_diagonal"),
]

MODULES = ("cli", "tensor", "linalg", "entropy", "barriers", "diagonal")

# name -> unit, in report order.  Counts and seconds are per pass of the
# workload's job list; *_s are self times (span minus its child spans).
PER_LAYER = {
    "cli.jobs": "count", "cli.self_s": "s",
    "tensor.read_calls": "count", "tensor.read_s": "s", "tensor.read_entries": "count",
    "tensor.cyc_calls": "count", "tensor.cyc_s": "s", "tensor.cyc_points": "count",
    "linalg.rank_calls": "count", "linalg.rank_s": "s", "linalg.rank_nnz": "count",
    "linalg.rank_nnz_per_s": "entries/s",
    "entropy.rho_calls": "count", "entropy.rho_s": "s", "entropy.rho_points": "count",
    "entropy.rho_iterations": "count", "entropy.rho_iter_per_s": "iter/s",
    "entropy.rho_max_residual": "bits", "entropy.rho_budget_hits": "count",
    "entropy.oracle_calls": "count", "entropy.oracle_s": "s",
    "entropy.oracle_grid_points": "count", "entropy.oracle_points_per_s": "points/s",
    "barriers.irr_calls": "count", "barriers.irr_self_s": "s",
    "barriers.theta_calls": "count", "barriers.theta_s": "s",
    "barriers.theta_rho_calls": "count", "barriers.theta_rho_per_search": "ratio",
    "barriers.rect_calls": "count", "barriers.rect_s": "s",
    "barriers.table_calls": "count", "barriers.table_s": "s",
    "diagonal.power_calls": "count", "diagonal.power_s": "s", "diagonal.power_points": "count",
    "diagonal.search_calls": "count", "diagonal.search_s": "s",
    "diagonal.search_points": "count", "diagonal.exact_frac": "ratio",
    "diagonal.budget_hits": "count",
    **{f"{m}.module_self_s": "s" for m in MODULES},
    "trace.jobs_per_s": "jobs/s", "trace.overhead_frac": "ratio",
}


class Span:
    __slots__ = ("name", "job", "parent", "start", "end", "fn", "args", "result", "error")

    def __init__(self, name, job, parent, fn=None, args=None):
        self.name, self.job, self.parent, self.fn, self.args = name, job, parent, fn, args
        self.result = self.error = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _namespaces(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "irrev" or name.startswith("irrev."))]

    def install(self) -> None:
        for span_name, module, attr in LAYER_FUNCTIONS:
            orig = getattr(sys.modules.get(f"irrev.{module}"), attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(span_name, orig)
            for ns in self._namespaces():
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, key, wrapper)
                        self._patches.append((ns, key, orig))

    def uninstall(self) -> None:
        for ns, key, orig in reversed(self._patches):
            setattr(ns, key, orig)
        self._patches.clear()

    def call(self, name, fn, args=(), kwargs=None, keep=False):
        """Run fn inside a span; keep records the arguments and result."""
        kwargs = kwargs or {}
        span = Span(name, self.job, self._stack[-1] if self._stack else -1,
                    fn if keep else None, (args, kwargs) if keep else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = cpu_seconds()
        try:
            span.result = fn(*args, **kwargs)
            return span.result
        except BaseException as exc:
            span.error = exc
            raise
        finally:
            span.end = cpu_seconds()
            self._stack.pop()
            if not keep:
                span.result = None

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, keep=True)

        return wrapper

    def dump(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.job] for s in self.spans]


def _bound(span: Span) -> dict:
    args, kwargs = span.args
    bound = inspect.signature(span.fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _theta(theta) -> tuple:
    return (1 / 3, 1 / 3, 1 / 3) if theta is None else tuple(theta.as_tuple())


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its spans."""
    budget_error = getattr(sys.modules.get("irrev.errors"), "BudgetExceededError", ())
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    m = {name: 0.0 for name in PER_LAYER}
    exact = 0
    max_residual = 0.0
    for idx, s in enumerate(spans):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + (s.end - s.start) - child[idx]
        r = s.result
        if s.name == "tensor.read" and r is not None:
            m["tensor.read_entries"] += len(r.entries)
        elif s.name == "tensor.cyc" and r is not None:
            m["tensor.cyc_points"] += len(r.entries)
        elif s.name == "linalg.rank":
            m["linalg.rank_nnz"] += 3 * len(_bound(s)["t"].entries)
        elif s.name == "entropy.rho":
            m["entropy.rho_points"] += len(_bound(s)["t"].entries)
            if r is None and isinstance(s.error, budget_error):
                r = s.error.best
                m["entropy.rho_budget_hits"] += 1
            if r is not None:
                m["entropy.rho_iterations"] += r.iterations
                max_residual = max(max_residual, r.residual)
            anc = s.parent
            while anc >= 0 and spans[anc].name != "barriers.theta":
                anc = spans[anc].parent
            if anc >= 0:
                m["barriers.theta_rho_calls"] += 1
        elif s.name == "entropy.oracle":
            a = _bound(s)
            t = a["t"]
            m["entropy.oracle_grid_points"] += checks.oracle_grid_points(
                (t.dims, dict(t.entries)), _theta(a["theta"]), a["resolution"])
        elif s.name == "diagonal.power" and r is not None:
            m["diagonal.power_points"] += len(r.points)
        elif s.name == "diagonal.search":
            m["diagonal.search_points"] += len(_bound(s)["support"].points)
            if r is not None:
                exact += bool(r.exact)
                m["diagonal.budget_hits"] += not r.exact
    for key, name in (("cli.jobs", "cli"), ("tensor.read_calls", "tensor.read"),
                      ("tensor.cyc_calls", "tensor.cyc"), ("linalg.rank_calls", "linalg.rank"),
                      ("entropy.rho_calls", "entropy.rho"), ("entropy.oracle_calls", "entropy.oracle"),
                      ("barriers.irr_calls", "barriers.irr"), ("barriers.theta_calls", "barriers.theta"),
                      ("barriers.rect_calls", "barriers.rect"), ("barriers.table_calls", "barriers.table"),
                      ("diagonal.power_calls", "diagonal.power"),
                      ("diagonal.search_calls", "diagonal.search")):
        m[key] = calls.get(name, 0)
    for key, name in (("cli.self_s", "cli"), ("tensor.read_s", "tensor.read"),
                      ("tensor.cyc_s", "tensor.cyc"), ("linalg.rank_s", "linalg.rank"),
                      ("entropy.rho_s", "entropy.rho"), ("entropy.oracle_s", "entropy.oracle"),
                      ("barriers.irr_self_s", "barriers.irr"), ("barriers.theta_s", "barriers.theta"),
                      ("barriers.rect_s", "barriers.rect"), ("barriers.table_s", "barriers.table"),
                      ("diagonal.power_s", "diagonal.power"), ("diagonal.search_s", "diagonal.search")):
        m[key] = self_s.get(name, 0.0)
    for mod in MODULES:
        m[f"{mod}.module_self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == mod)
    out = dict(m)
    out["entropy.rho_max_residual"] = max_residual
    out["diagonal.exact_frac"] = exact / m["diagonal.search_calls"] if m["diagonal.search_calls"] else 0.0
    out["barriers.theta_rho_per_search"] = (
        m["barriers.theta_rho_calls"] / m["barriers.theta_calls"] if m["barriers.theta_calls"] else 0.0)
    for rate, num, den in (("linalg.rank_nnz_per_s", "linalg.rank_nnz", "linalg.rank_s"),
                           ("entropy.rho_iter_per_s", "entropy.rho_iterations", "entropy.rho_s"),
                           ("entropy.oracle_points_per_s", "entropy.oracle_grid_points",
                            "entropy.oracle_s")):
        out[rate] = m[num] / m[den] if m[den] > 0 else 0.0
    return out
