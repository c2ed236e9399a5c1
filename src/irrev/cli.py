"""Command-line front end.

Subcommands: gen (named families), irr (barrier report), rho (entropy
maximum), diag (free-diagonal search), table (barrier tables), flatrank
(flattening ranks).

Exit codes: 0 success, 2 usage or parse error, 3 degenerate input, 4
optimizer/oracle mismatch (including ArithmeticError from a closed-form
cross-check or exact elimination), 5 resource or iteration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import barriers, diagonal, entropy, linalg, tensor
from .errors import BudgetExceededError, DegenerateInputError, ResourceLimitError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_ORACLE_MISMATCH = 4
EXIT_RESOURCE = 5

ORACLE_AGREEMENT = 1e-3


@dataclass
class CliConfig:
    output_format: str = "text"
    precision: int = 6
    tol: float = 1e-10
    node_budget: int = diagonal.DEFAULT_NODE_BUDGET
    iter_budget: int = entropy.DEFAULT_ITER_BUDGET

    def __post_init__(self):
        if not 2 <= self.precision <= 17:
            raise ValueError("precision must be in [2, 17]")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


def _fmt(x: float, precision: int) -> str:
    return format(x, f".{precision}g")


def _round_sig(x: float, precision: int) -> float:
    return float(_fmt(x, precision))


def _parse_theta(text: str | None) -> entropy.Theta | None:
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("--theta expects three comma-separated values")
    return entropy.Theta(*(float(p) for p in parts))


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", dest="output_format", choices=("text", "csv", "json"),
                   default="text", help="output format (default text)")
    p.add_argument("--precision", type=int, default=6,
                   help="significant digits for printed reals, 2..17 (default 6)")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="optimizer tolerance (default 1e-10)")
    p.add_argument("--node-budget", type=int, default=diagonal.DEFAULT_NODE_BUDGET,
                   help="search node budget for diag")
    p.add_argument("--iter-budget", type=int, default=entropy.DEFAULT_ITER_BUDGET,
                   help="iteration budget for the entropy optimizer")


def _config(args) -> CliConfig:
    return CliConfig(
        output_format=args.output_format,
        precision=args.precision,
        tol=args.tol,
        node_budget=args.node_budget,
        iter_budget=args.iter_budget,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irrev",
        description="Irreversibility lower bounds and matrix-multiplication barriers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a named tensor family member")
    p_gen.add_argument("family", choices=("unit", "matmul", "cw", "CW", "tn", "w", "z3"))
    p_gen.add_argument("--n", type=int, help="size for unit")
    p_gen.add_argument("--a", type=int, help="matmul rows")
    p_gen.add_argument("--b", type=int, help="matmul inner")
    p_gen.add_argument("--c", type=int, help="matmul cols")
    p_gen.add_argument("--q", type=int, help="parameter for cw / CW")
    p_gen.add_argument("--m", type=int, help="size for tn")
    p_gen.add_argument("--out", help="output path (default stdout)")
    _common_flags(p_gen)

    p_irr = sub.add_parser("irr", help="irreversibility lower bound and barriers")
    p_irr.add_argument("path", help="tensor file, or - for stdin")
    theta_choice = p_irr.add_mutually_exclusive_group()
    theta_choice.add_argument("--theta", help="axis weights t1,t2,t3 (default uniform)")
    theta_choice.add_argument("--search-theta", action="store_true",
                              help="minimize over the theta simplex (excludes --theta)")
    _common_flags(p_irr)

    p_rho = sub.add_parser("rho", help="entropy maximum over support distributions")
    p_rho.add_argument("path", help="tensor file, or - for stdin")
    p_rho.add_argument("--theta", help="axis weights t1,t2,t3 (default uniform)")
    p_rho.add_argument("--oracle", action="store_true",
                       help="also run the grid oracle and compare")
    p_rho.add_argument("--resolution", type=int, default=1000,
                       help="grid oracle resolution (default 1000)")
    _common_flags(p_rho)

    p_diag = sub.add_parser("diag", help="maximum free diagonal of a support power")
    p_diag.add_argument("path", help="tensor file, or - for stdin")
    p_diag.add_argument("--power", type=int, default=1, help="Kronecker power (default 1)")
    p_diag.add_argument("--budget", type=int, default=None,
                        help="node budget override for this search")
    _common_flags(p_diag)

    p_table = sub.add_parser("table", help="reproduce a barrier table")
    p_table.add_argument("which", choices=("cw", "CW", "tn", "laser", "better"))
    p_table.add_argument("--qmin", type=int, help="first q (family minimum by default)")
    p_table.add_argument("--qmax", type=int, help="last q")
    p_table.add_argument("--mmin", type=int, help="first m for tn (default 2)")
    p_table.add_argument("--mmax", type=int, help="last m for tn (default 7)")
    p_table.add_argument("--assume-rank", choices=("flattening", "conjectured"),
                         default="flattening",
                         help="laser table rank assumption (default flattening)")
    _common_flags(p_table)

    p_flat = sub.add_parser("flatrank", help="exact ranks of the three flattenings")
    p_flat.add_argument("path", help="tensor file, or - for stdin")
    _common_flags(p_flat)

    return parser


def _emit_table(rows, headers, cfg: CliConfig) -> None:
    if cfg.output_format == "csv":
        print("param,value")
        for row in rows:
            print(f"{row[0]},{_fmt(row[-1], cfg.precision)}")
    elif cfg.output_format == "json":
        payload = [
            {headers[i]: (row[i] if i < len(row) - 1 else _round_sig(row[i], cfg.precision))
             for i in range(len(row))}
            for row in rows
        ]
        print(json.dumps(payload))
    else:
        print("  ".join(headers))
        for row in rows:
            cells = [str(v) for v in row[:-1]] + [_fmt(row[-1], cfg.precision)]
            print("  ".join(cells))


def _cmd_gen(args, cfg: CliConfig) -> int:
    family = args.family
    if family == "unit":
        if args.n is None:
            raise ValueError("gen unit requires --n")
        t = tensor.unit(args.n)
    elif family == "matmul":
        if None in (args.a, args.b, args.c):
            raise ValueError("gen matmul requires --a --b --c")
        t = tensor.matmul(args.a, args.b, args.c)
    elif family == "cw":
        if args.q is None:
            raise ValueError("gen cw requires --q")
        t = tensor.cw(args.q)
    elif family == "CW":
        if args.q is None:
            raise ValueError("gen CW requires --q")
        t = tensor.cw_big(args.q)
    elif family == "tn":
        if args.m is None:
            raise ValueError("gen tn requires --m")
        t = tensor.tn(args.m)
    elif family == "w":
        t = tensor.w()
    else:
        t = tensor.z3()
    text = tensor.to_json(t)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _print_report(report: barriers.BarrierReport, cfg: CliConfig) -> None:
    if cfg.output_format == "json":
        doc = report.to_json_dict()
        doc["rho"]["value"] = _round_sig(doc["rho"]["value"], cfg.precision)
        doc["rho"]["residual"] = _round_sig(doc["rho"]["residual"], cfg.precision)
        doc["rho"]["argmax"]["probabilities"] = [
            {"point": rec["point"], "prob": _round_sig(rec["prob"], cfg.precision)}
            for rec in doc["rho"]["argmax"]["probabilities"]
        ]
        doc["theta_used"] = [_round_sig(v, cfg.precision) for v in doc["theta_used"]]
        doc["irr_lb"] = _round_sig(doc["irr_lb"], cfg.precision)
        doc["barrier_basic"] = _round_sig(doc["barrier_basic"], cfg.precision)
        if doc["barrier_laser"] is not None:
            doc["barrier_laser"] = _round_sig(doc["barrier_laser"], cfg.precision)
        print(json.dumps(doc))
        return
    p = cfg.precision
    print(f"tensor_id        {report.tensor_id}")
    print(f"flattening_ranks {report.flattening_ranks[0]} {report.flattening_ranks[1]} "
          f"{report.flattening_ranks[2]}")
    print(f"rho              {_fmt(report.rho.value, p)} (residual {_fmt(report.rho.residual, 2)}, "
          f"iterations {report.rho.iterations})")
    print(f"theta_used       {','.join(_fmt(v, p) for v in report.theta_used.as_tuple())}")
    print(f"irr_lb           {_fmt(report.irr_lb, p)}")
    print(f"barrier_basic    {_fmt(report.barrier_basic, p)}")
    if report.barrier_laser is not None:
        print(f"barrier_laser    {_fmt(report.barrier_laser, p)}")
    if report.notes:
        print(f"notes            {report.notes}")


def _cmd_irr(args, cfg: CliConfig) -> int:
    t = tensor.read_tensor(args.path)
    theta = _parse_theta(args.theta)
    report = barriers.irr_lower(
        t, theta, tol=cfg.tol, search_theta=args.search_theta, iter_budget=cfg.iter_budget
    )
    _print_report(report, cfg)
    return EXIT_OK


def _cmd_rho(args, cfg: CliConfig) -> int:
    t = tensor.read_tensor(args.path)
    theta = _parse_theta(args.theta)
    res = entropy.rho_upper(t, theta, tol=cfg.tol, iter_budget=cfg.iter_budget)
    oracle_value = None
    if args.oracle:
        oracle_value = entropy.rho_grid_oracle(t, theta, resolution=args.resolution)
    if cfg.output_format == "json":
        doc = {
            "value": _round_sig(res.value, cfg.precision),
            "residual": _round_sig(res.residual, cfg.precision),
            "iterations": res.iterations,
            "argmax": {
                "probabilities": [
                    {"point": list(pt), "prob": _round_sig(x, cfg.precision)}
                    for pt, x in zip(res.argmax.points, res.argmax.probs)
                ]
            },
        }
        if oracle_value is not None:
            doc["oracle"] = _round_sig(oracle_value, cfg.precision)
        print(json.dumps(doc))
    else:
        print(f"rho        {_fmt(res.value, cfg.precision)}")
        print(f"residual   {_fmt(res.residual, 2)}")
        print(f"iterations {res.iterations}")
        if oracle_value is not None:
            print(f"oracle     {_fmt(oracle_value, cfg.precision)}")
    if oracle_value is not None and abs(oracle_value - res.value) > ORACLE_AGREEMENT:
        print(
            f"oracle mismatch: optimizer {_fmt(res.value, cfg.precision)} vs "
            f"grid {_fmt(oracle_value, cfg.precision)}",
            file=sys.stderr,
        )
        return EXIT_ORACLE_MISMATCH
    return EXIT_OK


def _cmd_diag(args, cfg: CliConfig) -> int:
    t = tensor.read_tensor(args.path)
    budget = args.budget if args.budget is not None else cfg.node_budget
    res = diagonal.monomial_subrank_power(t, args.power, node_budget=budget)
    if cfg.output_format == "json":
        print(json.dumps({
            "size": res.size,
            "per_copy_rate": _round_sig(res.per_copy_rate, cfg.precision),
            "exact": res.exact,
            "witness": [list(p) for p in res.witness],
        }))
    else:
        print(f"size          {res.size}")
        print(f"per_copy_rate {_fmt(res.per_copy_rate, cfg.precision)}")
        print(f"exact         {res.exact}")
        print(f"witness       {' '.join(repr(p) for p in res.witness)}")
    return EXIT_OK


def _cmd_table(args, cfg: CliConfig) -> int:
    which = args.which
    if which == "cw":
        q_lo = args.qmin if args.qmin is not None else 2
        q_hi = args.qmax if args.qmax is not None else 7
        rows = barriers.cw_table(q_lo, q_hi)
        _emit_table(rows, ("q", "barrier"), cfg)
    elif which == "CW":
        q_lo = args.qmin if args.qmin is not None else 1
        q_hi = args.qmax if args.qmax is not None else 6
        rows = barriers.cw_big_table(q_lo, q_hi)
        _emit_table(rows, ("q", "barrier"), cfg)
    elif which == "tn":
        m_lo = args.mmin if args.mmin is not None else 2
        m_hi = args.mmax if args.mmax is not None else 7
        rows = barriers.tn_table(m_lo, m_hi)
        _emit_table(rows, ("m", "table_n", "barrier"), cfg)
    elif which == "laser":
        q_lo = args.qmin if args.qmin is not None else 2
        q_hi = args.qmax if args.qmax is not None else (11 if args.assume_rank == "conjectured" else 7)
        rows = barriers.laser_table(q_lo, q_hi, args.assume_rank)
        _emit_table(rows, ("q", "barrier"), cfg)
    else:
        q_lo = args.qmin if args.qmin is not None else 2
        q_hi = args.qmax if args.qmax is not None else 12
        rows = barriers.better_table(q_lo, q_hi)
        _emit_table(rows, ("q", "barrier"), cfg)
    return EXIT_OK


def _cmd_flatrank(args, cfg: CliConfig) -> int:
    t = tensor.read_tensor(args.path)
    ranks = linalg.flattening_ranks(t)
    if cfg.output_format == "json":
        print(json.dumps({"flattening_ranks": list(ranks), "max": max(ranks)}))
    else:
        print(f"flattening_ranks {ranks[0]} {ranks[1]} {ranks[2]}")
        print(f"max              {max(ranks)}")
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "irr": _cmd_irr,
    "rho": _cmd_rho,
    "diag": _cmd_diag,
    "table": _cmd_table,
    "flatrank": _cmd_flatrank,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config(args)
        return _COMMANDS[args.command](args, cfg)
    except DegenerateInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ResourceLimitError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        best = getattr(exc, "best", None)
        if best is not None:
            print(f"best: rho {best.value!r} residual {best.residual!r} "
                  f"iterations {best.iterations}", file=sys.stderr)
        return EXIT_RESOURCE
    except ArithmeticError as exc:
        # A closed form disagreeing with the optimizer, or a broken exact
        # elimination invariant: a mismatch, not a usage error.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE_MISMATCH
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
