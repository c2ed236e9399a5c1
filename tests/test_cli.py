import argparse
import io
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irrev
from irrev import Tensor, barriers, cli, from_json, to_json, unit, w
from irrev.entropy import ORACLE_GRID_LIMIT
from irrev.tensor import matmul, z3

from conftest import certificate_gap, stalling_rho_upper

# Child interpreters import the same irrev as this process, also when it is
# found through pytest's `pythonpath` setting rather than PYTHONPATH.
_CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(irrev.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
}


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_cw(capsys):
    code, out, _ = run_cli(capsys, ["gen", "cw", "--q", "2"])
    assert code == 0
    t = from_json(out)
    assert len(t.entries) == 6


def test_gen_matmul(capsys):
    code, out, _ = run_cli(capsys, ["gen", "matmul", "--a", "2", "--b", "2", "--c", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [4, 4, 4]
    assert len(doc["entries"]) == 8


def test_gen_simple_tensor_exits_2(capsys):
    code, _, err = run_cli(capsys, ["gen", "tn", "--m", "1"])
    assert code == 2
    assert "error" in err


def test_gen_missing_param_exits_2(capsys):
    code, _, err = run_cli(capsys, ["gen", "unit"])
    assert code == 2


def test_gen_unknown_family_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "nope"])
    assert exc.value.code == 2


def test_gen_out_file(tmp_path, capsys):
    path = tmp_path / "t.json"
    code, out, _ = run_cli(capsys, ["gen", "w", "--out", str(path)])
    assert code == 0 and out == ""
    assert from_json(path.read_text()) == w()


def test_irr_stdin_matches_file_byte_for_byte(tmp_path, capsys, monkeypatch):
    text = to_json(w())
    path = tmp_path / "w.json"
    path.write_text(text + "\n")
    code1, out_file, _ = run_cli(capsys, ["irr", str(path)])
    code2, out_stdin, _ = run_cli(capsys, ["irr", "-"], stdin=text, monkeypatch=monkeypatch)
    assert code1 == code2 == 0
    assert out_file == out_stdin


def test_irr_cw2(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, ["irr", "-", "--format", "json"], stdin=to_json(unit(2)), monkeypatch=monkeypatch
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["irr_lb"] == pytest.approx(1.0, abs=1e-6)
    assert doc["barrier_basic"] == pytest.approx(2.0, abs=1e-6)


def test_irr_w_text(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["irr", "-"], stdin=to_json(w()), monkeypatch=monkeypatch)
    assert code == 0
    assert "irr_lb           1.08897" in out
    assert "barrier_basic    2.17795" in out
    assert "flattening_ranks 2 2 2" in out


def test_irr_search_theta_cw_big1(capsys, monkeypatch):
    from irrev import cw_big

    code, out, _ = run_cli(
        capsys,
        ["irr", "-", "--search-theta", "--format", "json"],
        stdin=to_json(cw_big(1)),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["barrier_basic"] == pytest.approx(2.168, abs=5e-3)


def test_irr_search_theta_notes_solves_and_gap(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["irr", "-", "--search-theta", "--format", "json"],
        stdin=to_json(w()),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert "theta search: 1 solves, duality gap 0" in json.loads(out)["notes"]


def test_irr_search_theta_notes_solves_stopped_early(capsys, monkeypatch):
    monkeypatch.setattr(barriers, "rho_upper", stalling_rho_upper(2))
    t = Tensor((2, 3, 2), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 2, 0): 1})
    code, out, _ = run_cli(capsys, ["irr", "-", "--search-theta"], stdin=to_json(t),
                           monkeypatch=monkeypatch)
    assert code == 0
    # The solve count follows last-bit ties between the cut model's vertices.
    assert "theta search: 3 solves (1 stopped early, cuts only), duality gap 0" in out


def test_irr_search_theta_first_solve_stalled_exit_5(capsys, monkeypatch):
    monkeypatch.setattr(barriers, "rho_upper", stalling_rho_upper(1))
    code, out, err = run_cli(capsys, ["irr", "-", "--search-theta"], stdin=to_json(w()),
                             monkeypatch=monkeypatch)
    assert code == 5
    assert out == ""
    assert err.splitlines()[-1].startswith("best: rho ")


def test_irr_theta_with_search_theta_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["irr", "-", "--theta", "1,0,0", "--search-theta"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--theta" in out.err and "--search-theta" in out.err


def test_irr_parse_failure_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run_cli(capsys, ["irr", str(path)])
    assert code == 2
    assert err


def test_rho_values(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["rho", "-"], stdin=to_json(w()), monkeypatch=monkeypatch)
    assert code == 0
    assert "rho        0.918296" in out
    code, out, _ = run_cli(capsys, ["rho", "-"], stdin=to_json(unit(3)), monkeypatch=monkeypatch)
    assert "rho        1.58496" in out
    code, out, _ = run_cli(capsys, ["rho", "-"], stdin=to_json(z3()), monkeypatch=monkeypatch)
    assert "rho        1.58496" in out


def test_rho_small_axis_weight_converges(capsys, monkeypatch):
    # At axis weight 2.8e-9 Frank-Wolfe steps stall (exit 5); the Newton
    # step's ratio test drops the two points the optimum leaves empty.
    pts = [(0, 0, 0), (0, 0, 1), (0, 2, 3), (0, 3, 3), (1, 0, 1), (2, 0, 0)]
    text = to_json(irrev.Tensor((3, 4, 4), {p: 1 for p in pts}))
    theta = (2.8e-9, 0.50005, 0.4999499972)
    code, out, _ = run_cli(
        capsys,
        ["rho", "-", "--theta", ",".join(map(str, theta)), "--format", "json", "--precision", "17"],
        stdin=text,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["residual"] <= 1e-10
    probs = doc["argmax"]["probabilities"]
    gap = certificate_gap([tuple(e["point"]) for e in probs], [e["prob"] for e in probs], theta)[1]
    assert gap <= 1e-10 + 1e-12


def test_json_steps_by_kind(capsys, monkeypatch):
    for cmd in ("rho", "irr"):
        code, out, _ = run_cli(
            capsys,
            [cmd, "-", "--format", "json"],
            stdin=to_json(irrev.cw_big(1)),
            monkeypatch=monkeypatch,
        )
        assert code == 0
        doc = json.loads(out)
        rho = doc["rho"] if cmd == "irr" else doc
        assert set(rho["steps"]) == {"newton", "drop", "toward", "away"}
        assert sum(rho["steps"].values()) == rho["iterations"] - 1 > 0


def test_rho_oracle_agreement(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["rho", "-", "--oracle", "--resolution", "3000"],
        stdin=to_json(w()),
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert "oracle" in out


def test_rho_oracle_mismatch_exit_4(capsys, monkeypatch):
    # resolution 2 cannot approximate the ternary-entropy maximum
    code, out, err = run_cli(
        capsys,
        ["rho", "-", "--oracle", "--resolution", "2"],
        stdin=to_json(w()),
        monkeypatch=monkeypatch,
    )
    assert code == 4
    assert "mismatch" in err


def test_table_cross_check_mismatch_exit_4(capsys, monkeypatch):
    monkeypatch.setattr(barriers, "cw_big_marginal_entropy", lambda q, x: 1.0)
    code, out, err = run_cli(capsys, ["table", "CW", "--qmax", "1"])
    assert code == 4
    assert "disagree" in err and out == ""


@pytest.mark.parametrize(
    "field,value",
    [("i", 0.9), ("j", True), ("k", "0"), ("num", 1.7), ("num", "1.7"), ("den", False)],
)
def test_irr_rejects_coerced_entry_fields_exit_2(capsys, monkeypatch, field, value):
    doc = json.loads(to_json(w()))
    doc["entries"][0][field] = value
    code, _, err = run_cli(capsys, ["irr", "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert code == 2
    assert "error" in err


def test_diag_command(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, ["diag", "-", "--format", "json"], stdin=to_json(w()), monkeypatch=monkeypatch
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 1 and doc["exact"] is True
    code, out, _ = run_cli(
        capsys,
        ["diag", "-", "--power", "2", "--format", "json"],
        stdin=to_json(unit(4)),
        monkeypatch=monkeypatch,
    )
    doc = json.loads(out)
    assert doc["size"] == 16
    assert doc["per_copy_rate"] == pytest.approx(2.0)


def test_diag_json_counters(capsys, monkeypatch):
    argv = ["diag", "-", "--power", "2", "--budget", "1000"]
    code, out, _ = run_cli(capsys, argv + ["--format", "json"], stdin=to_json(z3()),
                           monkeypatch=monkeypatch)
    doc = json.loads(out)
    assert code == 0 and doc["exact"] is False
    assert (doc["nodes"], doc["size"]) == (1000, 4)
    assert doc["bound_prunes"] > 0 and doc["box_prunes"] > 0
    # the text format has no counters
    code, out, _ = run_cli(capsys, argv, stdin=to_json(z3()), monkeypatch=monkeypatch)
    assert [line.split()[0] for line in out.splitlines()] == [
        "size", "per_copy_rate", "exact", "witness"]


def test_diag_matmul222(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["diag", "-", "--format", "json"],
        stdin=to_json(matmul(2, 2, 2)),
        monkeypatch=monkeypatch,
    )
    doc = json.loads(out)
    assert doc["size"] == 2 and doc["exact"] is True


def test_table_cw_csv(capsys):
    code, out, _ = run_cli(capsys, ["table", "cw", "--qmax", "7", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "param,value"
    assert len(lines) == 7
    assert lines[1] == "2,2"
    assert lines[2].startswith("3,2.0253")
    assert "\r" not in out


def test_table_calls_the_function_bound_in_barriers_now(capsys, monkeypatch):
    # A wrapper put on barriers.cw_table after import (as a tracer does) sees the call.
    monkeypatch.setattr(barriers, "cw_table", lambda q_lo=2, q_hi=7: [(q_lo, 1.5)])
    code, out, _ = run_cli(capsys, ["table", "cw", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["param,value", "2,1.5"]


def test_table_laser_conjectured(capsys):
    code, out, _ = run_cli(
        capsys,
        ["table", "laser", "--qmax", "7", "--assume-rank", "conjectured", "--format", "csv"],
    )
    rows = dict(line.split(",") for line in out.splitlines()[1:])
    assert float(rows["7"]) == pytest.approx(2.40614, abs=1e-4)


def test_table_better_min_at_6(capsys):
    code, out, _ = run_cli(capsys, ["table", "better", "--qmax", "12", "--format", "json"])
    rows = json.loads(out)
    best = min(rows, key=lambda r: r["barrier"])
    assert best["q"] == 6
    assert best["barrier"] == pytest.approx(2.27135, abs=1e-4)


def test_table_tn_includes_row_mapping(capsys):
    code, out, _ = run_cli(capsys, ["table", "tn", "--format", "json"])
    rows = json.loads(out)
    assert rows[0]["m"] == 2 and rows[0]["table_n"] == 1
    assert rows[0]["barrier"] == pytest.approx(2.17795, abs=1e-4)


def test_table_bad_range_exit_2(capsys):
    code, _, err = run_cli(capsys, ["table", "cw", "--qmin", "1"])
    assert code == 2


@pytest.mark.parametrize("which,lo,hi", [
    ("cw", "--qmin", "--qmax"), ("CW", "--qmin", "--qmax"), ("tn", "--mmin", "--mmax"),
    ("laser", "--qmin", "--qmax"), ("better", "--qmin", "--qmax"),
])
def test_table_empty_range_exit_2(capsys, which, lo, hi):
    code, out, err = run_cli(capsys, ["table", which, lo, "5", hi, "3"])
    assert code == 2
    assert out == ""
    assert "5..3 is empty" in err


def test_flatrank(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["flatrank", "-"], stdin=to_json(z3()), monkeypatch=monkeypatch)
    assert code == 0
    assert "flattening_ranks 3 3 3" in out
    assert "max              3" in out


def test_precision_flag(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, ["rho", "-", "--precision", "10"], stdin=to_json(w()), monkeypatch=monkeypatch
    )
    assert "0.918295834" in out
    code, _, _ = run_cli(
        capsys, ["rho", "-", "--precision", "50"], stdin=to_json(w()), monkeypatch=monkeypatch
    )
    assert code == 2


def test_deterministic_output(capsys):
    code1, out1, _ = run_cli(capsys, ["table", "CW", "--qmax", "3"])
    code2, out2, _ = run_cli(capsys, ["table", "CW", "--qmax", "3"])
    assert out1 == out2


def test_degenerate_input_exit_3(capsys, monkeypatch):
    from irrev import Tensor

    t = Tensor((2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1})
    code, _, err = run_cli(
        capsys,
        ["irr", "-", "--theta", "1,0,0"],
        stdin=to_json(t),
        monkeypatch=monkeypatch,
    )
    assert code == 3
    assert err


def test_iteration_budget_exit_5(capsys, monkeypatch):
    from irrev import cw_big

    code, _, err = run_cli(
        capsys,
        ["rho", "-", "--tol", "1e-14", "--iter-budget", "2"],
        stdin=to_json(cw_big(3)),
        monkeypatch=monkeypatch,
    )
    assert code == 5
    assert err


def test_iteration_budget_reports_best_partial_result(capsys, monkeypatch):
    from irrev import BudgetExceededError, cw_big, rho_upper

    with pytest.raises(BudgetExceededError) as exc:
        rho_upper(cw_big(3), tol=1e-14, iter_budget=2)
    best = exc.value.best
    code, out, err = run_cli(
        capsys,
        ["rho", "-", "--tol", "1e-14", "--iter-budget", "2"],
        stdin=to_json(cw_big(3)),
        monkeypatch=monkeypatch,
    )
    assert code == 5
    assert out == ""
    line = err.splitlines()[-1]
    assert line == (
        f"best: rho {best.value!r} residual {best.residual!r} iterations {best.iterations}"
    )
    assert float(line.split()[2]) == best.value > 0
    assert float(line.split()[4]) == best.residual > 0


def test_power_limit_exit_5(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys, ["diag", "-", "--power", "9"], stdin=to_json(z3()), monkeypatch=monkeypatch
    )
    assert code == 5
    assert err


def test_theta_parse_error_exit_2(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys, ["rho", "-", "--theta", "1,0"], stdin=to_json(w()), monkeypatch=monkeypatch
    )
    assert code == 2


@pytest.mark.parametrize("flag,value", [
    ("--theta", "nan,0.5,0.5"), ("--theta", "0.5,0.5,inf"), ("--tol", "nan"), ("--tol", "inf"),
])
@pytest.mark.parametrize("command", ["rho", "irr"])
def test_non_finite_theta_or_tol_exits_2(tmp_path, capfd, command, flag, value):
    # capfd reads file descriptors 1 and 2, so it also sees the DLASCL lines
    # LAPACK writes from C when a NaN reaches the optimizer's least squares.
    path = tmp_path / "w.json"
    path.write_text(to_json(w()) + "\n")
    code = cli.main([command, str(path), flag, value])
    out = capfd.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert "finite" in out.err


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "irrev", "gen", "cw", "--q", "1"],
        env=_CHILD_ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dims"] == [2, 2, 2]


def test_pipe_gen_to_irr_subprocess():
    gen = subprocess.run(
        [sys.executable, "-m", "irrev", "gen", "cw", "--q", "2"],
        env=_CHILD_ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )
    irr = subprocess.run(
        [sys.executable, "-m", "irrev", "irr", "-", "--format", "json"],
        input=gen.stdout,
        env=_CHILD_ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert irr.returncode == 0
    doc = json.loads(irr.stdout)
    assert doc["irr_lb"] == pytest.approx(1.0, abs=1e-6)
    assert doc["barrier_laser"] == pytest.approx(2.0, abs=1e-6)


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


# Flag combinations that used to exit 0 with a flag ignored: (argv, the
# rejected flag, a flag the command does take, which stderr names).
IGNORED_FLAGS = [
    (["table", "tn", "--qmax", "3"], "--qmax", "--mmax"),
    (["table", "CW", "--tol", "1", "--iter-budget", "1"], "--tol", "--qmax"),
    (["flatrank", "{w}", "--format", "csv", "--precision", "3", "--tol", "5"], "--format", "'json'"),
    (["irr", "{w}", "--format", "csv"], "--format", "'json'"),
    (["gen", "w", "--format", "csv"], "--format", "--out"),
    (["gen", "cw", "--q", "2", "--m", "9", "--n", "4"], "--m", "--q"),
    (["diag", "{w}", "--node-budget", "5", "--budget", "100000", "--tol", "7",
      "--iter-budget", "3"], "--node-budget", "--budget"),
    (["table", "cw", "--assume-rank", "conjectured", "--mmax", "3"], "--assume-rank", "--qmin"),
]


@pytest.mark.parametrize("argv,rejected,taken", IGNORED_FLAGS)
def test_flag_the_command_does_not_read_exits_2(tmp_path, capsys, argv, rejected, taken):
    path = tmp_path / "w.json"
    path.write_text(to_json(w()) + "\n")
    code = _exit_code([str(path) if a == "{w}" else a for a in argv])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert rejected in out.err and taken in out.err


def _floats(doc):
    if isinstance(doc, float):
        yield doc
    elif isinstance(doc, dict):
        for v in doc.values():
            yield from _floats(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _floats(v)


@pytest.mark.parametrize(
    "argv",
    [
        ["irr", "-"],
        ["irr", "-", "--search-theta"],
        ["rho", "-", "--oracle", "--resolution", "300"],
        ["diag", "-", "--power", "2"],
        ["table", "tn"],
        ["table", "laser", "--assume-rank", "conjectured"],
    ],
)
def test_json_precision_rounds_every_float(capsys, monkeypatch, argv):
    from irrev import cw_big

    code, out, _ = run_cli(
        capsys, [*argv, "--format", "json", "--precision", "3"],
        stdin=to_json(cw_big(1)), monkeypatch=monkeypatch,
    )
    assert code == 0
    values = list(_floats(json.loads(out)))
    assert values
    for x in values:
        assert float(format(x, ".3g")) == x


@pytest.mark.parametrize("power", ["9100", "1000000"])
def test_power_far_over_limit_exit_5_with_short_message(capsys, monkeypatch, power):
    code, out, err = run_cli(
        capsys, ["diag", "-", "--power", power], stdin=to_json(w()), monkeypatch=monkeypatch
    )
    assert code == 5 and out == ""
    assert len(err.splitlines()) == 1 and len(err) < 200
    assert power in err


@pytest.mark.parametrize("resolution", [str(ORACLE_GRID_LIMIT + 1), str(10**12)])
def test_oracle_resolution_over_limit_exit_5(capsys, monkeypatch, resolution):
    code, out, err = run_cli(
        capsys, ["rho", "-", "--oracle", "--resolution", resolution],
        stdin=to_json(w()), monkeypatch=monkeypatch,
    )
    assert code == 5 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert resolution in err


def _w_with_num(num) -> str:
    doc = json.loads(to_json(w()))
    doc["entries"][0]["num"] = num
    return json.dumps(doc)


def test_num_digit_limit_exit_2(capsys, monkeypatch):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("int string conversion is unlimited in this interpreter")
    t = from_json(_w_with_num("9" * limit))
    assert t.entries[(0, 0, 1)] == 10**limit - 1
    for num in ("9" * (limit + 1), "-" + "9" * (limit + 1)):
        code, out, err = run_cli(
            capsys, ["flatrank", "-"], stdin=_w_with_num(num), monkeypatch=monkeypatch
        )
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and str(limit) in err


# After valid "1"/"1" and 1/1 records, each of these coefficient fields must
# still be refused: from_json reuses the Fraction of an equal string pair, and
# True == 1 == 1.0 must not let a bool or a float reuse an integer pair's.
@pytest.mark.parametrize("num,den", [
    (True, "1"), ("1", True), (1.0, "1"), ("-0", "1"), ("1", "0"), (True, True), (1.0, 1),
])
def test_bad_coefficient_after_cached_pair_exit_2(capsys, monkeypatch, num, den):
    doc = json.loads(to_json(w()))
    doc["entries"].append({"i": 1, "j": 1, "k": 0, "num": 1, "den": 1})
    doc["entries"].append({"i": 1, "j": 1, "k": 1, "num": num, "den": den})
    text = json.dumps(doc)
    with pytest.raises(ValueError):
        from_json(text)
    code, out, err = run_cli(capsys, ["flatrank", "-"], stdin=text, monkeypatch=monkeypatch)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "(1, 1, 1)" in err


@pytest.mark.parametrize("argv,code,stream,text", [
    ([], 2, "err", "irrev: error: the following arguments are required: command"),
    (["-h"], 0, "out", "usage: irrev [-h] {gen,irr,rho,diag,table,flatrank} ..."),
    (["nope"], 2, "err", "irrev: error: argument command: invalid choice: 'nope'"),
    (["--foo", "irr", "x"], 2, "err", "irrev irr: error: unrecognized arguments: --foo"),
    (["irr", "-h"], 0, "out", "usage: irrev irr [-h]"),
    (["irr"], 2, "err", "irrev irr: error: the following arguments are required: path"),
])
def test_top_level_dispatch(capsys, argv, code, stream, text):
    assert _exit_code(argv) == code
    assert text in getattr(capsys.readouterr(), stream)


# Each subcommand's option strings, and arguments that its parser accepts.
SUBCOMMANDS = {
    "gen": (["-h", "--help", "--n", "--a", "--b", "--c", "--q", "--m", "--out"], ["w"]),
    "irr": (["-h", "--help", "--theta", "--search-theta", "--format", "--precision", "--tol",
             "--iter-budget"], ["{w}"]),
    "rho": (["-h", "--help", "--theta", "--oracle", "--resolution", "--format", "--precision",
             "--tol", "--iter-budget"], ["{w}"]),
    "diag": (["-h", "--help", "--power", "--budget", "--format", "--precision"], ["{w}"]),
    "table": (["-h", "--help", "--qmin", "--qmax", "--mmin", "--mmax", "--assume-rank",
               "--format", "--precision"], ["cw"]),
    "flatrank": (["-h", "--help", "--format"], ["{w}"]),
}


@pytest.mark.parametrize("cmd", list(SUBCOMMANDS))
def test_subcommand_parser_usage_options_and_unknown_flag(tmp_path, capsys, cmd):
    options, positional = SUBCOMMANDS[cmd]
    assert list(cli._COMMANDS) == list(SUBCOMMANDS)
    parser = argparse.ArgumentParser(prog=f"irrev {cmd}")
    cli._COMMANDS[cmd][1](parser)
    assert [s for a in parser._actions for s in a.option_strings] == options
    assert _exit_code([cmd, "-h"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: irrev {cmd} [-h]")
    path = tmp_path / "w.json"
    path.write_text(to_json(w()) + "\n")
    argv = [cmd, *(str(path) if a == "{w}" else a for a in positional), "--bogus"]
    assert _exit_code(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(f"usage: irrev {cmd} [-h]")
    assert out.err.endswith(f"irrev {cmd}: error: unrecognized arguments: --bogus\n")


def _rounded_reference(doc, precision):
    """Every float rounded through its precision-digit string, at every precision."""
    if isinstance(doc, float):
        return float(format(doc, f".{precision}g"))
    if isinstance(doc, dict):
        return {k: _rounded_reference(v, precision) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_rounded_reference(v, precision) for v in doc]
    return doc


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
def test_rounded_at_17_is_the_identity(bits_a, bits_b):
    a, b = (struct.unpack("<d", struct.pack("<Q", bits))[0] for bits in (bits_a, bits_b))
    specials = [5e-324, -5e-324, 2.2250738585072009e-308, -0.0, 0.0, 1.7976931348623157e308,
                math.inf, np.float64(0.1), np.float64(-0.0), np.float64(a)]
    doc = {"a": a, "list": [b, {"x": specials}], "n": 3, "s": "t", "t": (a,), "none": None}
    assert cli._rounded(doc, 17) is doc
    assert json.dumps(doc) == json.dumps(_rounded_reference(doc, 17))
    for p in (2, 6, 16):
        assert json.dumps(cli._rounded(doc, p)) == json.dumps(_rounded_reference(doc, p))
