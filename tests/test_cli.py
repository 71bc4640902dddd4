import contextlib
import errno
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtpme import (
    Method,
    ProbabilityVector,
    RateMatrix,
    cli,
    csvtext,
    decompose,
    generator_from_rates,
    integrate,
    monitor,
    monotonicity,
    rate_matrix_from_json,
    yd,
)
from qtpme.errors import QtpmeError, ValidationError

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

from conftest import assert_near_exact, exact_stationary
from make_golden import CASES


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "qtpme", *args], capture_output=True, text=True
    )
    # numpy's RuntimeWarnings (and any other Python warning) never reach stderr
    assert "Warning" not in proc.stderr, proc.stderr
    return proc


def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "rates[dest][src]" in proc.stdout


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs_are_stable(name):
    args = CASES[name]
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    assert first.stdout == (GOLDEN / name).read_text(encoding="utf-8")


def test_out_flag_writes_identical_bytes(tmp_path):
    # every command's text goes through one writer: stdout and --out are two sinks
    for name in sorted(CASES):
        out = tmp_path / name
        args = CASES[name]
        streamed = run_cli(*args)
        to_file = run_cli(*args, "--out", str(out))
        assert to_file.returncode == 0, to_file.stderr
        assert to_file.stdout == ""
        assert out.read_bytes() == streamed.stdout.encode("utf-8")
        assert out.read_bytes() == (GOLDEN / name).read_bytes()


_CSV_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308]),
    st.integers(-2**60, 2**60).map(float),
)
_BLOCK = csvtext._BLOCK_ROWS


def _reference_csv(header, columns):
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(
            format(x + 0.0, ".17g") if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _written_csv(header, columns):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        cli._write([",".join(header) + "\n", *csvtext.blocks([columns])], None)
    return buffer.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    rows=st.sampled_from([1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]),
    pool=st.lists(_CSV_FLOATS, min_size=1, max_size=40),
    labels=st.lists(st.sampled_from(["M", "O", "B", "k%s", ""]), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_csv_writer_matches_line_by_line_reference(rows, pool, labels, seed):
    rng = np.random.default_rng(seed)
    floats = np.array(pool)
    columns = [
        floats[rng.integers(0, floats.size, rows)],
        np.array(labels)[rng.integers(0, len(labels), rows)],
        floats[rng.integers(0, floats.size, rows)][::-1],
    ]
    header = ["x", "label", "y"]
    expected = _reference_csv(header, [col.tolist() for col in columns])
    # compared as lists of lines, so a failure names the first differing row
    written = _written_csv(header, columns)
    assert written.splitlines(keepends=True) == expected.splitlines(keepends=True)


def test_csv_writer_streams_blocks_to_a_file(tmp_path):
    column = np.linspace(-1.0, 1.0, 2 * _BLOCK + 1)
    out = tmp_path / "table.csv"
    cli._write(["x,y\n", *csvtext.blocks([[column, -column]])], str(out))
    assert out.read_bytes() == _reference_csv(
        ["x", "y"], [column.tolist(), (-column).tolist()]).encode("utf-8")


def test_reader_closing_stdout_early_is_not_an_error():
    # a streamed table far larger than a pipe buffer, cut off after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "qtpme", "yd", "curve", "--a1", "1", "--f1", "1",
         "--d", "1", "--e", "1", "--steps", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"k,rho1,rho2,rho3\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert stderr == b""


def test_validate_round_trips_through_schema(tmp_path):
    proc = run_cli("validate", "--rates", str(DATA / "rates_126.json"))
    doc = json.loads(proc.stdout)
    assert doc["n"] == 3
    echoed = tmp_path / "echo.json"
    echoed.write_text(proc.stdout, encoding="utf-8")
    again = run_cli("validate", "--rates", str(echoed))
    assert again.returncode == 0
    assert again.stdout == proc.stdout


def test_decompose_numeric_matches_closed():
    closed = json.loads(run_cli(
        "decompose", "--rates", str(DATA / "rates_126.json"), "--method", "closed"
    ).stdout)
    numeric = json.loads(run_cli(
        "decompose", "--rates", str(DATA / "rates_126.json"), "--method", "numeric"
    ).stdout)
    assert np.abs(np.array(closed["sigma"]) - np.array(numeric["sigma"])).max() <= 1e-9
    assert abs(closed["r"] - numeric["r"]) <= 1e-9
    assert numeric["residual"] <= 1e-8


def test_decompose_json_schema():
    doc = json.loads(run_cli("decompose", "--rates", str(DATA / "rates_2state.json")).stdout)
    assert set(doc) == {"n", "sigma", "k", "r", "residual"}
    assert doc["n"] == 2
    assert doc["r"] is None
    assert doc["sigma"] == [[-1.0, 0.0], [0.0, -2.0]]


def test_validate_reports_offending_entry(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rates": [[0, 1, 2], [3, 0, 4], [5, -6, 0]]}', encoding="utf-8")
    proc = run_cli("validate", "--rates", str(bad))
    assert proc.returncode == 1
    assert "row=3" in proc.stderr and "col=2" in proc.stderr
    error_doc = json.loads(proc.stderr.splitlines()[-1])
    assert error_doc["error"] == "NegativeRate"
    assert error_doc["exit_code"] == 1


def test_closed_method_rejected_for_large_n(tmp_path):
    rates = np.zeros((4, 4))
    rates[0, 1] = 1.0
    doc = {"n": 4, "rates": rates.tolist()}
    path = tmp_path / "rates4.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = run_cli("decompose", "--rates", str(path), "--method", "closed")
    assert proc.returncode == 1
    assert "numeric" in proc.stderr


def test_simulate_exact_answers_defective_and_boundary_generators(tmp_path):
    # a = d = 1, rest zero: defective spectrum, p1 = exp(-t), p2 = t exp(-t);
    # a = d = e = 1, f = 1 - 3e-16: D = 0 to rounding
    for rates, p1, p2 in (
        ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], lambda t: np.exp(-t), lambda t: t * np.exp(-t)),
        ([[0, 0, 1], [1, 0, 1 - 3e-16], [0, 1, 0]], None, None),
    ):
        path = tmp_path / "rates.json"
        path.write_text(json.dumps({"rates": rates}), encoding="utf-8")
        proc = run_cli("simulate", "--rates", str(path), "--p0", "1,0,0",
                       "--t-end", "10", "--steps", "100", "--method", "exact")
        assert proc.returncode == 0, proc.stderr
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in proc.stdout.splitlines()[1:]])
        t, states = rows[:, 0], rows[:, 1:]
        assert np.abs(states.sum(axis=1) - 1.0).max() <= 1e-12
        assert states.min() >= -1e-15
        if p1 is not None:
            assert np.abs(states[:, 0] - p1(t)).max() <= 1e-12
            assert np.abs(states[:, 1] - p2(t)).max() <= 1e-12


def test_simulate_unstable_rk4_step_is_solver_failure(tmp_path):
    path = tmp_path / "stiff.json"
    path.write_text('{"rates": [[0, 30, 50], [10, 0, 60], [20, 40, 0]]}', encoding="utf-8")
    base = ["simulate", "--rates", str(path), "--p0", "1,0,0", "--t-end", "1",
            "--method", "rk4"]
    proc = run_cli(*base, "--steps", "50")
    assert proc.returncode == 2
    assert proc.stdout == ""
    error_doc = json.loads(proc.stderr.splitlines()[-1])
    assert error_doc["error"] == "UnstableStep"
    assert "at least 53 steps" in error_doc["message"]
    proc = run_cli(*base, "--steps", "53")
    assert proc.returncode == 0, proc.stderr
    rows = np.array([[float(x) for x in line.split(",")]
                     for line in proc.stdout.splitlines()[1:]])
    assert rows[:, 1:].min() >= 0.0


@pytest.mark.parametrize("t_end", ["inf", "5e-324"])
def test_simulate_unusable_t_end_is_input_error(t_end):
    # inf: no finite time span; 5e-324 over 8 steps: the step underflows to 0
    for method in ("exact", "rk4"):
        proc = run_cli("simulate", "--rates", str(DATA / "rates_cyclic.json"), "--p0", "1,0,0",
                       "--t-end", t_end, "--steps", "8", "--method", method)
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 2, proc.stderr
        error_doc = json.loads(proc.stderr.splitlines()[-1])
        assert error_doc["error"] == "ValidationError"
        assert "--t-end" in error_doc["message"]


@pytest.mark.parametrize("doc", [
    pytest.param('{"rates": [[0, 1], [1]]}', id="ragged"),
    pytest.param('{"rates": "x"}', id="string-rates"),
    pytest.param('{"n": "abc", "rates": [[0, 1], [1, 0]]}', id="string-n"),
    pytest.param('{"rates": [[0, true], [1, 0]]}', id="boolean-rate"),
    pytest.param('{"n": 2.7, "rates": [[0, 1], [1, 0]]}', id="fractional-n"),
])
def test_malformed_rate_document_is_input_error(tmp_path, doc):
    path = tmp_path / "rates.json"
    path.write_text(doc, encoding="utf-8")
    proc = run_cli("validate", "--rates", str(path))
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1])["error"] == "BadShape"


@pytest.mark.parametrize("k_max", ["inf", "nan"])
def test_yd_curve_non_finite_bound_is_input_error(k_max):
    proc = run_cli("yd", "curve", "--a1", "1", "--f1", "1", "--d", "1", "--e", "1",
                   "--k-max", k_max)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert json.loads(proc.stderr.splitlines()[-1])["error"] == "ValidationError"


def test_structure_reducible_chain_is_solver_failure(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text('{"rates": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}', encoding="utf-8")
    proc = run_cli("structure", "--rates", str(path))
    assert proc.returncode == 2
    assert json.loads(proc.stderr.splitlines()[-1])["error"] == "NonUniqueStationary"


def test_overflowing_generator_is_input_error(tmp_path):
    # finite rates whose column sum overflows to inf
    path = tmp_path / "overflow.json"
    path.write_text('{"rates": [[0, 1, 1, 1], [1e308, 0, 1, 1], [1e308, 1, 0, 1], '
                    '[1, 1, 1, 0]]}', encoding="utf-8")
    for command, *extra in (["decompose"], ["spectrum"], ["structure"],
                            ["simulate", "--p0", "1,0,0,0", "--t-end", "1", "--steps", "4"]):
        proc = run_cli(command, "--rates", str(path), *extra)
        assert proc.returncode == 1, (command, proc.stderr)
        assert json.loads(proc.stderr.splitlines()[-1])["error"] == "ValidationError"


@pytest.mark.parametrize("rates", [
    np.zeros((4, 4)).tolist(),
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 3, 0]],
])
def test_decompose_reducible_chain_succeeds(tmp_path, rates):
    path = tmp_path / "reducible.json"
    path.write_text(json.dumps({"rates": rates}), encoding="utf-8")
    proc = run_cli("decompose", "--rates", str(path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["residual"] <= 1e-8


@pytest.mark.parametrize("command", [
    ["decompose"],
    ["simulate", "--p0", "1,0,0", "--t-end", "1", "--steps", "2", "--monitor"],
])
def test_library_warning_is_one_warning_line(tmp_path, command):
    # the closed form warns on an all-zero matrix; stderr gets the message alone
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"rates": np.zeros((3, 3)).tolist()}), encoding="utf-8")
    proc = run_cli(command[0], "--rates", str(path), *command[1:])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ("warning: all transition rates are zero; "
                           "returning the trivial decomposition\n")


def test_spectrum_json_fields():
    doc = json.loads(run_cli("spectrum", "--rates", str(DATA / "rates_cyclic.json")).stdout)
    assert set(doc) == {"eigenvalues", "zero_index", "gap", "null_dim"}
    assert doc["null_dim"] == 1
    imag_parts = sorted(v["im"] for v in doc["eigenvalues"])
    assert imag_parts == pytest.approx(
        [-np.sqrt(3) / 2, 0.0, np.sqrt(3) / 2], abs=1e-12
    )


def test_unknown_flag_is_input_validation():
    proc = run_cli("classify", "--rates", str(DATA / "rates_cyclic.json"), "--frobnicate")
    assert proc.returncode == 1
    assert json.loads(proc.stderr.splitlines()[-1])["exit_code"] == 1


def test_bad_p0_is_input_validation():
    proc = run_cli("simulate", "--rates", str(DATA / "rates_cyclic.json"),
                   "--p0", "0.9,0.3,0.1", "--t-end", "1", "--steps", "4")
    assert proc.returncode == 1


@pytest.mark.parametrize("args", [
    ["--vary", "e:0:2:5", "--vary", "c:0:2:5"],
    ["--rates", str(DATA / "rates_cyclic.json"), "--vary", "e:0:2:5"],
])
def test_sweep_needs_rates_and_two_axes(args):
    proc = run_cli("sweep", *args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert json.loads(proc.stderr.splitlines()[-1])["exit_code"] == 1


def test_cli_import_loads_no_thread_pool():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qtpme.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_overflowing_discriminant_is_input_error(tmp_path):
    # finite generators whose xi (1e308) or q (5e160) overflows: D is NaN
    for big in ("1e308", "5e160"):
        path = tmp_path / "big.json"
        path.write_text(f'{{"rates": [[0, {big}, 1], [{big}, 0, 1], [1, 1, 0]]}}',
                        encoding="utf-8")
        proc = run_cli("classify", "--rates", str(path))
        assert proc.returncode == 1, (big, proc.stderr)
        assert proc.stdout == ""
        assert json.loads(proc.stderr.splitlines()[-1])["error"] == "ValidationError"
    proc = run_cli("sweep", "--rates", str(DATA / "rates_cyclic.json"),
                   "--vary", "a:0:1e308:3", "--vary", "b:0:1e308:3")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert json.loads(proc.stderr.splitlines()[-1])["error"] == "ValidationError"


@pytest.mark.parametrize("vary", ["a:0:inf:3", "a:nan:1:3", "a:-inf:1:3", "a:0:nan:3"])
def test_sweep_non_finite_vary_bound_is_input_error(vary):
    # no numpy warning, no blame on the rates: the bound is named
    proc = run_cli("sweep", "--rates", str(DATA / "rates_cyclic.json"),
                   "--vary", vary, "--vary", "b:0:1:3")
    first = assert_error_lines(proc, 1, "BadAxis")
    lo, hi = (repr(float(x)) for x in vary.split(":")[1:3])
    assert first == f"error: axis 'a' needs finite bounds 0 <= lo <= hi, got lo={lo}, hi={hi}"


def test_sweep_zero_steps_names_the_axis():
    proc = run_cli("sweep", "--rates", str(DATA / "rates_cyclic.json"),
                   "--vary", "a:0:1:3", "--vary", "b:0:1:0")
    assert assert_error_lines(proc, 1, "BadAxis") == "error: axis 'b' needs steps >= 1, got 0"


@pytest.mark.parametrize("args", [
    ("validate", "--rates", str(DATA / "rates_126.json")),
    ("sweep", "--rates", str(DATA / "rates_cyclic.json"), "--vary", "a:0:1:3",
     "--vary", "b:0:1:3"),
])
@pytest.mark.parametrize("target", ["missing/out.txt", "."])
def test_out_path_that_cannot_be_opened_is_input_error(tmp_path, args, target):
    # a missing directory, and a directory in place of the file
    out = str(tmp_path / target)
    first = assert_error_lines(run_cli(*args, "--out", out), 1, "ValidationError")
    assert first.startswith(f"error: cannot write output file {out!r}: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_write_that_fails_once_the_file_is_open_is_internal_error():
    # /dev/full opens like a file, and every write to it fails with ENOSPC
    proc = run_cli("classify", "--rates", str(DATA / "rates_cyclic.json"), "--out", "/dev/full")
    first = assert_error_lines(proc, 3, "OSError")
    assert f"[Errno {errno.ENOSPC}]" in first
    assert json.loads(proc.stderr.splitlines()[-1])["exit_code"] == 3


def test_bare_library_error_is_internal_error(monkeypatch):
    def fail(params):
        raise QtpmeError("no report")

    monkeypatch.setattr(yd, "yd_consistency", fail)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["yd", "check", "--a1", "1", "--f1", "1", "--d", "1", "--e", "1"])
    assert code == 3
    assert out.getvalue() == ""
    first, second = err.getvalue().splitlines()
    assert first == "error: no report"
    assert json.loads(second) == {"error": "QtpmeError", "message": "no report", "exit_code": 3}


def test_sweep_overflow_in_the_last_block_writes_nothing(tmp_path):
    # D ~ a^2 overflows only for a above 1.34e154, in the last of four blocks
    ranges, steps = ((0.0, 1.4e154), (0.0, 1.0)), (20000, 3)
    _, _, blocks = monotonicity._sweep_blocks(
        RateMatrix.from_coeffs(1, 0, 0, 1, 1, 0), "a", "b", ranges, steps)  # rates_cyclic
    done = []
    with pytest.raises(ValidationError, match="discriminant is not finite"):
        for rows, _, _, _ in blocks():
            done.append(rows)
    assert len(done) == 3 and done[-1].stop < 20000
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--rates", str(DATA / "rates_cyclic.json"),
            "--vary", "a:0:1.4e154:20000", "--vary", "b:0:1:3"]
    assert_error_lines(run_cli(*args), 1, "ValidationError")
    assert_error_lines(run_cli(*args, "--out", str(out)), 1, "ValidationError")
    assert not out.exists()


def test_degenerate_yd_curve_writes_no_file(tmp_path):
    out = tmp_path / "curve.csv"
    proc = run_cli("yd", "curve", "--a1", "0", "--f1", "1", "--d", "1", "--e", "0",
                   "--steps", "40000", "--out", str(out))
    assert_error_lines(proc, 1, "DegenerateDenominator")
    assert not out.exists()


def test_sweep_prints_an_axis_value_of_full_width_after_shorter_ones():
    # the rows of a = 0.5 follow a block of a = 0, whose text is one byte
    proc = run_cli("sweep", "--rates", str(DATA / "rates_cyclic.json"),
                   "--vary", "a:0:1:3", "--vary", "b:0.1:1:10000")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "a,b,class,D"
    a = np.array([float(line.split(",", 1)[0]) for line in lines[1:]])
    assert np.array_equal(a, np.repeat(np.linspace(0, 1, 3), 10000))


@pytest.mark.parametrize("axes", ["ab", "ba"])
def test_sweep_table_is_the_library_sweep_cell_by_cell(axes):
    # 401 x 401 cells are 11 blocks of 40 rows and hold all three classes
    w = rate_matrix_from_json(json.loads((DATA / "rates_cyclic.json").read_text()))
    region = monotonicity.sweep(w, axes[0], axes[1], ((0.0, 2.0), (0.0, 2.0)), 401)
    proc = run_cli("sweep", "--rates", str(DATA / "rates_cyclic.json"),
                   "--vary", f"{axes[0]}:0:2:401", "--vary", f"{axes[1]}:0:2:401")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == f"{axes[0]},{axes[1]},class,D"
    classes, disc = zip(*(line.split(",")[2:] for line in lines[1:]))
    classes = np.array(classes)
    assert np.array_equal(classes, region.classes.ravel())
    assert {letter: np.count_nonzero(classes == letter) for letter in "OBM"} == {
        "O": 71096, "B": 15, "M": 89690}
    disc = np.array([float(text) for text in disc])
    assert np.array_equal(disc.view(np.uint64), region.discriminants.ravel().view(np.uint64))


def test_sweep_memory_does_not_grow_with_the_grid():
    # the whole-grid evaluation peaked at 157 MiB here
    argv = ["sweep", "--rates", str(DATA / "rates_126.json"),
            "--vary", "a:0:5:2000", "--vary", "e:0:5:2000", "--out", os.devnull]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 8 * 2**20


def test_simulate_memory_does_not_grow_with_the_steps():
    # the whole trajectory and its monitor columns peaked at 19 MiB here
    peaks = []
    for steps in (20_000, 200_000):
        argv = ["simulate", "--rates", str(DATA / "rates_126.json"), "--p0", "0.2,0.5,0.3",
                "--t-end", "10", "--steps", str(steps), "--monitor", "--out", os.devnull]
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert peaks[1] <= peaks[0] + 2**18


@pytest.mark.parametrize("method", ["exact", "rk4"])
def test_simulate_streams_the_library_trajectory(method):
    # three blocks of rows, the last one partial, then the monitor columns
    w = rate_matrix_from_json(json.loads((DATA / "rates_126.json").read_text()))
    traj = integrate(generator_from_rates(w), ProbabilityVector(np.array([0.2, 0.5, 0.3])),
                     10.0, 10_000, Method(method))
    series = monitor(traj, decompose(w))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["simulate", "--rates", str(DATA / "rates_126.json"),
                         "--p0", "0.2,0.5,0.3", "--t-end", "10", "--steps", "10000",
                         "--method", method, "--monitor"])
    assert code == 0
    rows = np.loadtxt(io.StringIO(out.getvalue()), delimiter=",", skiprows=1)
    expected = np.column_stack([traj.times, traj.states, series.h_vals, series.s_vals,
                                series.s_bs_vals])
    assert rows.tobytes() == (expected + 0.0).tobytes()


@pytest.mark.parametrize("n", [8, 30])
@pytest.mark.parametrize("method", ["exact", "rk4"])
def test_simulate_streams_the_library_trajectory_from_n_8(tmp_path, method, n):
    # from 8 states on H and S_BS are summed pairwise; three full blocks of
    # 4096 rows and a short one
    rng = np.random.default_rng(n)
    rates = 10.0 ** rng.uniform(-1.0, 1.0, (n, n))
    np.fill_diagonal(rates, 0.0)
    path = rates_file(tmp_path, rates)
    p0 = rng.dirichlet(np.ones(n)).tolist()
    w = rate_matrix_from_json(json.loads(path.read_text(encoding="utf-8")))
    steps = 3 * 4096 + 4
    traj = integrate(generator_from_rates(w), ProbabilityVector(np.array(p0)), 5.0, steps,
                     Method(method))
    series = monitor(traj, decompose(w))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["simulate", "--rates", str(path), "--p0", ",".join(map(repr, p0)),
                         "--t-end", "5", "--steps", str(steps), "--method", method,
                         "--monitor"])
    assert code == 0
    rows = np.loadtxt(io.StringIO(out.getvalue()), delimiter=",", skiprows=1)
    expected = np.column_stack([traj.times, traj.states, series.h_vals, series.s_vals,
                                series.s_bs_vals])
    assert rows.shape == (steps + 1, n + 4)
    assert rows.tobytes() == (expected + 0.0).tobytes()


def test_simulate_drift_is_reported_before_the_first_byte(tmp_path, monkeypatch):
    monkeypatch.setattr(sys.modules["qtpme.integrate"], "TOL_SUM", -1.0)
    out = tmp_path / "sim.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["simulate", "--rates", str(DATA / "rates_126.json"), "--p0", "1,0,0",
                         "--t-end", "1", "--steps", "10000", "--out", str(out)])
    assert code == 2
    assert json.loads(err.getvalue().splitlines()[-1])["error"] == "ProbabilityDrift"
    assert not out.exists()


@pytest.mark.parametrize("args, flag", [
    (["simulate", "--rates", str(DATA / "rates_126.json"), "--p0", "1,0,0", "--t-end", "1",
      "--steps", "100000000000000000000"], "steps (--steps)"),
    (["simulate", "--rates", str(DATA / "rates_126.json"), "--p0", "1,0,0", "--t-end", "1",
      "--steps", "3000000000"], "steps (--steps)"),
    (["yd", "curve", "--a1", "1", "--f1", "1", "--d", "1", "--e", "1",
      "--steps", "3000000000"], "steps (--steps)"),
    (["sweep", "--rates", str(DATA / "rates_126.json"), "--vary", "a:0:1:3",
      "--vary", "b:0:1:3000000000"], "axis 'b' steps (--vary)"),
], ids=["simulate-1e20", "simulate-3e9", "yd-curve-3e9", "sweep-3e9"])
def test_count_above_the_limit_is_input_error(tmp_path, args, flag):
    # numpy's "Maximum allowed size exceeded" and MemoryError were exit 3
    out = tmp_path / "out.csv"
    proc = run_cli(*args, "--out", str(out))
    first = assert_error_lines(proc, 1, "BadAxis" if args[0] == "sweep" else "ValidationError")
    assert first == f"error: {flag} must be at most 16777216 (2**24), got {args[-1].split(':')[-1]}"
    assert not out.exists()


def test_rates_near_the_float_limit(tmp_path):
    # |G|_F of the first file overflows; the second squares to overflow only
    huge, big = tmp_path / "huge.json", tmp_path / "big.json"
    huge.write_text('{"rates": [[0, 1e308, 1], [1e308, 0, 1], [1, 1, 0]]}', encoding="utf-8")
    big.write_text('{"rates": [[0, 1e200, 1], [1e200, 0, 1], [1, 1, 0]]}', encoding="utf-8")
    simulate = ["--p0", "1,0,0", "--t-end", "1", "--steps", "4"]
    for command, *extra in (["decompose"], ["spectrum"],
                            ["simulate", *simulate, "--method", "rk4"]):
        proc = run_cli(command, "--rates", str(huge), *extra)
        assert proc.returncode == 1, (command, proc.stderr)
        assert proc.stdout == ""
        first, second = proc.stderr.splitlines()
        assert first.startswith("error: ") and "overflow" in first
        assert json.loads(second)["error"] == "ValidationError"
    # the trajectory stands; only the S column, which needs sigma, is dropped
    proc = run_cli("simulate", "--rates", str(huge), *simulate, "--monitor")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "t,p1,p2,p3,H,S_BS"
    assert proc.stderr.startswith("warning: no decomposition for S column")
    assert len(proc.stderr.splitlines()) == 1
    proc = run_cli("decompose", "--rates", str(big))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert 0.0 <= doc["residual"] <= 1e-8 * 2e200
    for out in (proc.stdout, run_cli("simulate", "--rates", str(big), *simulate,
                                      "--monitor").stdout):
        assert "inf" not in out.lower() and "nan" not in out.lower()


def test_classify_json_matches_module():
    doc = json.loads(run_cli("classify", "--rates", str(DATA / "rates_126.json")).stdout)
    assert doc == {"class": "M", "D": 65.0, "xi": 21.0, "q": 94.0,
                   "u": 3.0, "v": 7.0, "omega": -1.0}


def test_yd_curve_header_and_normalization():
    proc = run_cli("yd", "curve", "--a1", "1", "--f1", "2", "--d", "1", "--e", "1",
                   "--steps", "11")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "k,rho1,rho2,rho3"
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.abs(rows[:, 1:].sum(axis=1) - 1.0).max() <= 1e-12


def rates_file(tmp_path, rates, name="rates.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"rates": np.asarray(rates, dtype=float).tolist()}),
                    encoding="utf-8")
    return path


def assert_error_lines(proc, code, error):
    """Exit code ``code`` and a stderr of exactly the two error lines."""
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == ""
    first, second = proc.stderr.splitlines()
    assert first.startswith("error: ")
    assert json.loads(second)["error"] == error
    return first


def test_structure_does_not_depend_on_the_time_unit(tmp_path):
    rates = np.array([[0, 2, 1], [1, 0, 1], [3, 1, 0]], dtype=float)
    for c in (1.0, 1e-20):
        proc = run_cli("structure", "--rates", str(rates_file(tmp_path, c * rates)))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert not (doc["symmetric"] or doc["doubly_stochastic"] or doc["detailed_balance"])
        assert doc["stationary"] == pytest.approx([0.25, 0.25, 0.5], abs=1e-12)


def test_classify_does_not_underflow(tmp_path):
    rates = json.loads((DATA / "rates_126.json").read_text(encoding="utf-8"))["rates"]
    for c in (1e-170, 1e-300):
        proc = run_cli("classify", "--rates", str(rates_file(tmp_path, c * np.array(rates))))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["class"] == "M"


@pytest.mark.parametrize("rates, gap", [
    # 13 decades apart: eigenvalues 0, -3.0 and -2e13
    ([[0, 1e13, 1], [1e13, 0, 1], [1, 1, 0]], 3.0),
    # two 2-cycles joined one way at 1e-12: the slowest mode is -1.1e-12
    ([[0, 1, 0, 1e-12], [1, 0, 0, 0], [0, 1e-12, 0, 2], [0, 0, 3, 0]], 1.1e-12),
])
def test_one_rank_rule_for_spectrum_decompose_and_structure(tmp_path, rates, gap):
    path = str(rates_file(tmp_path, rates))
    proc = run_cli("spectrum", "--rates", path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["null_dim"] == 1
    assert doc["gap"] == pytest.approx(gap, rel=1e-3)
    assert run_cli("decompose", "--rates", path).returncode == 0
    # the rate graph has one closed class: the exact state to rounding
    proc = run_cli("structure", "--rates", path)
    assert proc.returncode == 0, proc.stderr
    state = json.loads(proc.stdout)["stationary"]
    assert_near_exact(state, exact_stationary(rates), 4 * len(rates) * np.finfo(float).eps)


def test_rank_rule_for_spectrum_graph_rule_for_structure(tmp_path):
    # joined one way at 1e-300, below rounding: the rank rule sees two kernel
    # vectors, while the rate graph has one closed class and a unique state
    rates = [[0, 1, 0, 1e-300], [1, 0, 0, 0], [0, 1e-300, 0, 2], [0, 0, 3, 0]]
    path = str(rates_file(tmp_path, rates))
    proc = run_cli("spectrum", "--rates", path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["null_dim"] == 2
    proc = run_cli("structure", "--rates", path)
    assert proc.returncode == 0, proc.stderr
    state = json.loads(proc.stdout)["stationary"]
    assert_near_exact(state, [Fraction(3, 11), Fraction(3, 11), Fraction(2, 11), Fraction(3, 11)],
                      4 * 4 * np.finfo(float).eps)


def test_decompose_closed_form_near_the_float_limit(tmp_path):
    # xi = a+...+f overflows unless formed at unit size
    rates = [[0, 3.1e307, 3.1e307], [3.1e307, 0, 3.1e307], [3.1e307, 3.0e307, 0]]
    proc = run_cli("decompose", "--rates", str(rates_file(tmp_path, rates)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert 0.0 <= doc["residual"] <= 1e-8 * 1.3e308
    assert doc["r"] == pytest.approx(-0.2 / 37, rel=1e-12)


def test_overflow_prints_only_the_error_lines(tmp_path):
    simulate = ["--p0", "1,0,0", "--t-end", "1", "--steps", "4", "--method", "rk4"]
    # huge real and complex eigenvalues: the RK4 amplification overflows
    for rates in ([[0, 1e200, 1], [1e200, 0, 1], [1, 1, 0]],
                  [[0, 0, 1e200], [1e200, 0, 0], [0, 1e200, 0]]):
        proc = run_cli("simulate", "--rates", str(rates_file(tmp_path, rates)), *simulate)
        first = assert_error_lines(proc, 2, "UnstableStep")
        assert "amplification factor inf" in first
    # a column sum that overflows
    path = str(rates_file(tmp_path, [[0, 1, 1, 1], [1e308, 0, 1, 1],
                                     [1e308, 1, 0, 1], [1, 1, 1, 0]]))
    for command in ("decompose", "spectrum", "structure"):
        assert_error_lines(run_cli(command, "--rates", path), 1, "ValidationError")


def test_cli_import_builds_no_csv_tables():
    # the formatter's lookup tables are built by the first CSV call
    proc = subprocess.run(
        [sys.executable, "-c",
         "import qtpme.cli, qtpme.csvtext as c; print(c._tables.cache_info().currsize)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def yd_rows(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[0] == "k,rho1,rho2,rho3"
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


def test_yd_curve_huge_arousal_rows_stay_finite():
    # a1*k*(d+e+f) overflowed at k near 1e308 and printed rho2 as nan
    rows = yd_rows(run_cli("yd", "curve", "--a1", "1", "--f1", "1", "--d", "1", "--e", "1",
                           "--k-max", "1e308", "--steps", "3"))
    assert np.isfinite(rows).all()
    assert np.abs(rows[:, 1:].sum(axis=1) - 1.0).max() <= 1e-12
    assert rows[2].tolist() == [1e308, 0.0, 1.0, 1e-308]


def test_yd_optimal_with_underflowing_rate_product():
    # a1*f1 = 1e-400 underflows, but the optimum sqrt(d*e/(a1*f1)) is 1e200
    proc = run_cli("yd", "optimal", "--a1", "1e-200", "--f1", "1e-200", "--d", "1", "--e", "1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == 1e200


def test_yd_curve_default_range_with_underflowing_rate_product():
    # the default k_max is 4x the optimum, not the fallback 10
    rows = yd_rows(run_cli("yd", "curve", "--a1", "1e-200", "--f1", "1e-200", "--d", "1",
                           "--e", "1", "--steps", "3"))
    assert rows[:, 0].tolist() == [0.0, 2e200, 4e200]
    assert rows[1, 1:] == pytest.approx([1 / 9, 2 / 3, 2 / 9], rel=1e-15)


def test_yd_check_with_underflowing_rate_product():
    proc = run_cli("yd", "check", "--a1", "1e-200", "--f1", "3e-200", "--d", "1", "--e", "1")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["lhs"] == 2.0
    assert doc["rhs"] == pytest.approx(2 / math.sqrt(3), rel=1e-15)
    assert doc["omega_at_kopt"] == pytest.approx(2 - 2 / math.sqrt(3), rel=1e-14)
    assert doc["satisfied"] is False


def test_yd_check_with_overflowing_rate_products():
    # d*e = 1e400 overflowed and printed omega_at_kopt as NaN
    rates = ["--a1", "1e200", "--f1", "1e200", "--d", "1e200", "--e", "1e200"]
    proc = run_cli("yd", "check", *rates)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"lhs": 2.0, "rhs": 0.0, "satisfied": False,
                                       "omega_at_kopt": 2e200}


def test_yd_curve_default_range_outside_the_float_range_is_input_error():
    # the optimum, 1e308, is a double; the default k_max, 4e308, is not
    rates = ["--a1", "1e-154", "--f1", "1e-154", "--d", "1e154", "--e", "1e154"]
    first = assert_error_lines(run_cli("yd", "curve", *rates), 1, "ValidationError")
    assert "give --k-max" in first
    assert run_cli("yd", "curve", *rates, "--k-max", "1e308").returncode == 0


@pytest.mark.parametrize("flags, default", [
    (["--a1", "1", "--f1", "1", "--d", "1", "--e", "1", "--k-min", "5"], "4.0"),
    (["--a1", "1", "--f1", "1", "--d", "0", "--e", "1", "--k-min", "20"], "10.0"),
    (["--a1", "0", "--f1", "1", "--d", "1", "--e", "1", "--k-min", "20"], "10.0"),
])
def test_yd_curve_default_k_max_not_above_k_min_is_named_as_default(flags, default):
    # the error named the default as if it were a --k-max the user had given
    first = assert_error_lines(run_cli("yd", "curve", *flags, "--steps", "3"), 1,
                               "ValidationError")
    assert f"the default --k-max, {default}," in first
    assert "give --k-max" in first


@pytest.mark.parametrize("d, e", [("0", "1"), ("1", "0")])
def test_yd_curve_default_k_max_when_the_optimum_is_zero(d, e):
    # d*e = 0 puts the optimum at 0, so 4x it was no range: the fallback 10 applies
    rows = yd_rows(run_cli("yd", "curve", "--a1", "1", "--f1", "1", "--d", d, "--e", e,
                           "--k-min", "1", "--steps", "3"))
    assert rows[:, 0].tolist() == [1.0, 5.5, 10.0]


def test_yd_optimum_outside_the_float_range_is_input_error():
    rates = ["--a1", "1e-300", "--f1", "1e-300", "--d", "1e300", "--e", "1e300"]
    for command in ("optimal", "check", "curve"):
        first = assert_error_lines(run_cli("yd", command, *rates), 1, "ValidationError")
        assert "outside the float range" in first
