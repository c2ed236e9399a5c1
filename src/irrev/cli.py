"""Command-line front end.

Subcommands: gen (named families), irr (barrier report), rho (entropy
maximum), diag (free-diagonal search), table (barrier tables), flatrank
(flattening ranks).  Each subcommand takes only the flags it reads.

Exit codes: 0 success, 2 usage or parse error, 3 degenerate input, 4
mismatch (grid oracle against optimizer, or an ArithmeticError from a broken
exact-elimination invariant or a diagonal witness that is not free), 5
resource or iteration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

# Only the modules that every command needs load with the CLI; each handler
# below imports the rest.  So gen and the parsers (--help) load neither numpy
# nor diagonal, and diag loads no numpy.
from . import tensor
from .defaults import DEFAULT_ITER_BUDGET, DEFAULT_NODE_BUDGET, DEFAULT_RESOLUTION, DEFAULT_TOL
from .errors import BudgetExceededError, DegenerateInputError, ResourceLimitError

if TYPE_CHECKING:
    from .entropy import Theta

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_ORACLE_MISMATCH = 4
EXIT_RESOURCE = 5

ORACLE_AGREEMENT = 1e-3

# Family -> (constructor, its parameter flags in argument order).
_FAMILIES = {
    "unit": (tensor.unit, ("n",)),
    "matmul": (tensor.matmul, ("a", "b", "c")),
    "cw": (tensor.cw, ("q",)),
    "CW": (tensor.cw_big, ("q",)),
    "tn": (tensor.tn, ("m",)),
    "w": (tensor.w, ()),
    "z3": (tensor.z3, ()),
}
_FAMILY_FLAGS = ("n", "a", "b", "c", "q", "m")

# Table -> (barriers function name, column headers, {flag: keyword it sets}).
# Ranges the flags leave open are the function's defaults.  The function is
# looked up at call time, so a wrapper put on it in `barriers` sees the call.
_Q_RANGE = {"qmin": "q_lo", "qmax": "q_hi"}
_TABLES = {
    "cw": ("cw_table", ("q", "barrier"), _Q_RANGE),
    "CW": ("cw_big_table", ("q", "barrier"), _Q_RANGE),
    "tn": ("tn_table", ("m", "table_n", "barrier"), {"mmin": "m_lo", "mmax": "m_hi"}),
    "laser": ("laser_table", ("q", "barrier"), {**_Q_RANGE, "assume_rank": "rank_mode"}),
    "better": ("better_table", ("q", "barrier"), _Q_RANGE),
}
_TABLE_FLAGS = ("qmin", "qmax", "mmin", "mmax", "assume_rank")


def _fmt(x: float, precision: int) -> str:
    return format(x, f".{precision}g")


def _rounded(doc, precision: int):
    """doc with every float rounded to precision significant digits.  At 17
    digits every double reads back as itself, so doc is returned as it is."""
    if precision == 17:
        return doc
    spec = f".{precision}g"
    def walk(x):
        if isinstance(x, float):
            return float(format(x, spec))
        if isinstance(x, dict):
            return {k: walk(v) for k, v in x.items()}
        if isinstance(x, list):
            return [walk(v) for v in x]
        return x
    return walk(doc)


def _parse_theta(text: str | None) -> Theta | None:
    if text is None:
        return None
    from .entropy import Theta

    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("--theta expects three comma-separated values")
    return Theta(*(float(p) for p in parts))


def _flags(dests) -> str:
    return " ".join("--" + d.replace("_", "-") for d in dests)


def _params(args, what: str, dests, takes) -> dict:
    """The flags among dests given on the command line; one that `what`
    does not take is a ValueError."""
    given = {d: getattr(args, d) for d in dests if getattr(args, d) is not None}
    extra = [d for d in given if d not in takes]
    if extra:
        raise ValueError(f"{what} does not take {_flags(extra)}; "
                         f"it takes {_flags(takes) or 'no parameters'}")
    return given


def _format_flag(p: argparse.ArgumentParser, choices=("text", "json")) -> None:
    p.add_argument("--format", choices=choices, default="text",
                   help="output format (default text)")


def _precision_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--precision", type=int, default=6,
                   help="significant digits for printed reals, 2..17 (default 6)")


def _solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help=f"optimizer tolerance (default {DEFAULT_TOL:g})")
    p.add_argument("--iter-budget", type=int, default=DEFAULT_ITER_BUDGET,
                   help="iteration budget for the entropy optimizer "
                        f"(default {DEFAULT_ITER_BUDGET})")


def _gen_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", choices=tuple(_FAMILIES))
    p.add_argument("--n", type=int, help="size for unit")
    p.add_argument("--a", type=int, help="matmul rows")
    p.add_argument("--b", type=int, help="matmul inner")
    p.add_argument("--c", type=int, help="matmul cols")
    p.add_argument("--q", type=int, help="parameter for cw / CW")
    p.add_argument("--m", type=int, help="size for tn")
    p.add_argument("--out", help="output path (default stdout)")


def _irr_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", help="tensor file, or - for stdin")
    theta_choice = p.add_mutually_exclusive_group()
    theta_choice.add_argument("--theta", help="axis weights t1,t2,t3 (default uniform)")
    theta_choice.add_argument("--search-theta", action="store_true",
                              help="minimize over the theta simplex (excludes --theta)")
    _format_flag(p)
    _precision_flag(p)
    _solver_flags(p)


def _rho_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", help="tensor file, or - for stdin")
    p.add_argument("--theta", help="axis weights t1,t2,t3 (default uniform)")
    p.add_argument("--oracle", action="store_true",
                   help="also run the grid oracle and compare")
    p.add_argument("--resolution", type=int,
                   help=f"grid oracle resolution; needs --oracle (default {DEFAULT_RESOLUTION})")
    _format_flag(p)
    _precision_flag(p)
    _solver_flags(p)


def _diag_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", help="tensor file, or - for stdin")
    p.add_argument("--power", type=int, default=1, help="Kronecker power (default 1)")
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                   help=f"search node budget (default {DEFAULT_NODE_BUDGET}); it bounds nodes, "
                        "not time: a node box-tests up to all of its candidates")
    _format_flag(p)
    _precision_flag(p)


def _table_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("which", choices=tuple(_TABLES))
    p.add_argument("--qmin", type=int, help="first q (cw, CW, laser, better)")
    p.add_argument("--qmax", type=int, help="last q (cw, CW, laser, better)")
    p.add_argument("--mmin", type=int, help="first m (tn)")
    p.add_argument("--mmax", type=int, help="last m (tn)")
    p.add_argument("--assume-rank", choices=("flattening", "conjectured"),
                   help="rank assumption (laser; default flattening)")
    _format_flag(p, ("text", "csv", "json"))
    _precision_flag(p)


def _flatrank_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("path", help="tensor file, or - for stdin")
    _format_flag(p)


def _cmd_gen(args) -> int:
    make, names = _FAMILIES[args.family]
    given = _params(args, f"gen {args.family}", _FAMILY_FLAGS, names)
    if len(given) < len(names):
        raise ValueError(f"gen {args.family} requires {_flags(names)}")
    text = tensor.to_json(make(*(given[d] for d in names)))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _cmd_irr(args) -> int:
    from . import barriers

    t = tensor.read_tensor(args.path)
    theta = _parse_theta(args.theta)
    report = barriers.irr_lower(
        t, theta, tol=args.tol, search_theta=args.search_theta, iter_budget=args.iter_budget
    )
    p = args.precision
    if args.format == "json":
        print(json.dumps(_rounded(report.to_json_dict(), p)))
        return EXIT_OK
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
    return EXIT_OK


def _cmd_rho(args) -> int:
    from . import entropy

    if args.resolution is not None and not args.oracle:
        raise ValueError("--resolution needs --oracle")
    t = tensor.read_tensor(args.path)
    theta = _parse_theta(args.theta)
    p = args.precision
    res = entropy.rho_upper(t, theta, tol=args.tol, iter_budget=args.iter_budget)
    oracle_value = None
    if args.oracle:
        resolution = DEFAULT_RESOLUTION if args.resolution is None else args.resolution
        oracle_value = entropy.rho_grid_oracle(t, theta, resolution=resolution)
    if args.format == "json":
        doc = res.to_json_dict()
        if oracle_value is not None:
            doc["oracle"] = oracle_value
        print(json.dumps(_rounded(doc, p)))
    else:
        print(f"rho        {_fmt(res.value, p)}")
        print(f"residual   {_fmt(res.residual, 2)}")
        print(f"iterations {res.iterations}")
        if oracle_value is not None:
            print(f"oracle     {_fmt(oracle_value, p)}")
    if oracle_value is not None and abs(oracle_value - res.value) > ORACLE_AGREEMENT:
        print(
            f"oracle mismatch: optimizer {_fmt(res.value, p)} vs grid {_fmt(oracle_value, p)}",
            file=sys.stderr,
        )
        return EXIT_ORACLE_MISMATCH
    return EXIT_OK


def _cmd_diag(args) -> int:
    from . import diagonal

    t = tensor.read_tensor(args.path)
    res = diagonal.monomial_subrank_power(t, args.power, node_budget=args.budget)
    if args.format == "json":
        print(json.dumps(_rounded({
            "size": res.size,
            "per_copy_rate": res.per_copy_rate,
            "exact": res.exact,
            "witness": [list(p) for p in res.witness],
            "nodes": res.nodes,
            "bound_prunes": res.bound_prunes,
            "box_prunes": res.box_prunes,
            "root_orbits": res.root_orbits,
            "stabiliser_orbits": res.stabiliser_orbits,
        }, args.precision)))
    else:
        print(f"size          {res.size}")
        print(f"per_copy_rate {_fmt(res.per_copy_rate, args.precision)}")
        print(f"exact         {res.exact}")
        print(f"witness       {' '.join(repr(p) for p in res.witness)}")
    return EXIT_OK


def _cmd_table(args) -> int:
    from . import barriers

    name, headers, keywords = _TABLES[args.which]
    given = _params(args, f"table {args.which}", _TABLE_FLAGS, keywords)
    rows = getattr(barriers, name)(**{keywords[d]: v for d, v in given.items()})
    p = args.precision
    if args.format == "csv":
        print("param,value")
        for row in rows:
            print(f"{row[0]},{_fmt(row[-1], p)}")
    elif args.format == "json":
        print(json.dumps(_rounded([dict(zip(headers, row)) for row in rows], p)))
    else:
        print("  ".join(headers))
        for row in rows:
            print("  ".join([str(v) for v in row[:-1]] + [_fmt(row[-1], p)]))
    return EXIT_OK


def _cmd_flatrank(args) -> int:
    from . import linalg

    t = tensor.read_tensor(args.path)
    ranks = linalg.flattening_ranks(t)
    if args.format == "json":
        print(json.dumps({"flattening_ranks": list(ranks), "max": max(ranks)}))
    else:
        print(f"flattening_ranks {ranks[0]} {ranks[1]} {ranks[2]}")
        print(f"max              {max(ranks)}")
    return EXIT_OK


# Subcommand -> (help line, argument builder, handler).
_COMMANDS = {
    "gen": ("generate a named tensor family member", _gen_args, _cmd_gen),
    "irr": ("irreversibility lower bound and barriers", _irr_args, _cmd_irr),
    "rho": ("entropy maximum over support distributions", _rho_args, _cmd_rho),
    "diag": ("maximum free diagonal of a support power", _diag_args, _cmd_diag),
    "table": ("reproduce a barrier table", _table_args, _cmd_table),
    "flatrank": ("exact ranks of the three flattenings", _flatrank_args, _cmd_flatrank),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        # Only the invoked subcommand's parser is built: the top-level parser
        # around it would cost as much again as the subcommand's own.
        command = argv[0]
        parser = argparse.ArgumentParser(prog=f"irrev {command}")
        _COMMANDS[command][1](parser)
        args, extra = parser.parse_known_args(argv[1:])
    else:
        # -h, no command or an unknown one: the full parser prints the help or the error.
        top = argparse.ArgumentParser(
            prog="irrev",
            description="Irreversibility lower bounds and matrix-multiplication barriers.",
        )
        sub = top.add_subparsers(dest="command", required=True)
        for name, (help_line, add_args, _) in _COMMANDS.items():
            add_args(sub.add_parser(name, help=help_line))
        args, extra = top.parse_known_args(argv)
        command = args.command
        parser = sub.choices[command]
    if extra:
        # Reported by the subcommand, whose usage line lists the flags it takes.
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        if not 2 <= getattr(args, "precision", 6) <= 17:
            raise ValueError("precision must be in [2, 17]")
        return _COMMANDS[command][2](args)
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
        # A broken exact-elimination invariant or a witness that is not a
        # free diagonal: a mismatch, like the grid oracle disagreeing with
        # the optimizer, not a usage error.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE_MISMATCH
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
