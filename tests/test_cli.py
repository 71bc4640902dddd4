import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtpme import cli

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

from make_golden import CASES


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qtpme", *args], capture_output=True, text=True
    )


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
    # one JSON command and every CSV command: stdout and --out are two sinks
    for name in ("classify.json", "sweep.csv", "yd_curve.csv", "simulate_rk4.csv"):
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
_BLOCK = cli._CSV_BLOCK_ROWS


def _reference_csv(header, columns, lead=""):
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(lead + ",".join(
            format(x + 0.0, ".17g") if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _written_csv(header, columns, lead=""):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        cli._write([",".join(header) + "\n", *cli._csv_blocks(columns, lead=lead)], None)
    return buffer.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    rows=st.sampled_from([1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]),
    pool=st.lists(_CSV_FLOATS, min_size=1, max_size=40),
    labels=st.lists(st.sampled_from(["M", "O", "B", "k%s", ""]), min_size=1, max_size=5),
    lead=st.sampled_from(["", "0.5,", "1e+300,"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_csv_writer_matches_line_by_line_reference(rows, pool, labels, lead, seed):
    rng = np.random.default_rng(seed)
    floats = np.array(pool)
    columns = [
        floats[rng.integers(0, floats.size, rows)],
        np.array(labels)[rng.integers(0, len(labels), rows)],
        floats[rng.integers(0, floats.size, rows)][::-1],
    ]
    header = ["x", "label", "y"]
    expected = _reference_csv(header, [col.tolist() for col in columns], lead)
    # compared as lists of lines, so a failure names the first differing row
    written = _written_csv(header, columns, lead)
    assert written.splitlines(keepends=True) == expected.splitlines(keepends=True)


def test_csv_writer_streams_blocks_to_a_file(tmp_path):
    column = np.linspace(-1.0, 1.0, 2 * _BLOCK + 1)
    out = tmp_path / "table.csv"
    cli._write(["x,y\n", *cli._csv_blocks([column, -column])], str(out))
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
