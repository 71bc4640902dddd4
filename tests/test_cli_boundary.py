"""The command line's input boundary, generatively: whatever rate document
or flag value arrives, a command answers with finite numbers (exit 0) or
reports one typed error (exit 1 for input, 2 for a solver failure), never
an internal error (exit 3).  Commands run in process through ``cli.main``."""

import contextlib
import io
import json
import re
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qtpme import cli, errors

RATES_126 = str(Path(__file__).parent / "data" / "rates_126.json")
MAX = 1.7976931348623157e308


def invoke(argv):
    """Exit code, stdout, stderr and the Python warnings of one command."""
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), caught


def assert_answer_or_typed_error(argv):
    code, out, err, caught = invoke(argv)
    assert code in (0, 1, 2), (argv, err)
    # numpy's RuntimeWarnings (and any other Python warning) never reach stderr
    assert not caught, (argv, [str(w.message) for w in caught])
    if code == 0:
        tokens = {word.lower() for word in re.findall(r"[A-Za-z]+", out)}
        assert not tokens & {"nan", "inf", "infinity"}, (argv, out)
        return
    reports = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
    assert len(reports) == 1, (argv, err)
    name = reports[0]["error"]
    error_type = getattr(errors, name, None) or getattr(cli, name)
    assert issubclass(error_type, (errors.ValidationError, errors.SolverError)), (argv, err)
    assert reports[0]["exit_code"] == code


#: the edges of the double range, the JSON literals NaN and Infinity among them
EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-12, 1.0, 3.5,
               1e12, 1e300, 1e308, 1.7976931348623157e308, float("inf"), float("-inf"),
               float("nan"), -1.0]

rate_values = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(min_value=0.0, max_value=10.0),
    st.integers(0, 5),
    st.sampled_from(["1", "", None, True, False, [], [1.0]]),
)


@st.composite
def rate_documents(draw):
    """Square documents of 2-5 states with mostly well-formed entries, then
    ragged rows, nonzero diagonals and a declared ``n`` that may not match."""
    n = draw(st.integers(2, 5))
    rates = [[0.0 if i == j else draw(rate_values) for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        row = draw(st.integers(0, n - 1))
        rates[row] = rates[row][:draw(st.integers(0, n))]
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        if i < len(rates[i]):
            rates[i][i] = draw(rate_values)
    doc = {"rates": rates}
    declared = draw(st.sampled_from([None, n, n + 1, 1, float(n), str(n), True]))
    if declared is not None:
        doc["n"] = declared
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=rate_documents(),
       command=st.sampled_from([["validate"], ["classify"], ["spectrum"], ["structure"],
                                ["decompose"], ["decompose", "--method", "numeric"]]))
def test_rate_documents_get_an_answer_or_a_typed_error(tmp_path_factory, doc, command):
    path = tmp_path_factory.mktemp("rates") / "rates.json"
    path.write_text(json.dumps(doc))  # nan and inf become the literals NaN and Infinity
    assert_answer_or_typed_error([*command, "--rates", str(path)])


flag_values = st.sampled_from(EDGE_FLOATS).map(repr)
steps = st.integers(-1, 6).map(str)


@settings(max_examples=150, deadline=None)
@given(t_end=flag_values, n_steps=steps, method=st.sampled_from(["exact", "rk4"]),
       monitor=st.booleans())
def test_simulate_flags_get_an_answer_or_a_typed_error(t_end, n_steps, method, monitor):
    argv = ["simulate", "--rates", RATES_126, "--p0", "1,0,0", f"--t-end={t_end}",
            f"--steps={n_steps}", f"--method={method}"]
    assert_answer_or_typed_error(argv + ["--monitor"] * monitor)


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(["curve", "optimal", "check"]),
       rates=st.tuples(flag_values, flag_values, flag_values, flag_values),
       k_range=st.tuples(st.none() | flag_values, st.none() | flag_values),
       n_steps=steps)
def test_yd_flags_get_an_answer_or_a_typed_error(command, rates, k_range, n_steps):
    argv = ["yd", command] + [f"--{name}={value}" for name, value in
                              zip(("a1", "f1", "d", "e"), rates)]
    if command == "curve":
        argv += [f"--{name}={value}" for name, value in zip(("k-min", "k-max"), k_range)
                 if value is not None]
        argv.append(f"--steps={n_steps}")
    assert_answer_or_typed_error(argv)


# Cases the tests above found, each once exit 3 or a warning on stderr.

def test_rk4_step_count_past_the_float_range_is_a_solver_failure():
    # int(inf) raised OverflowError while bracketing the smallest stable count
    code, _, err, caught = invoke(["simulate", "--rates", RATES_126, "--p0", "1,0,0",
                                   "--t-end=1e308", "--steps=1", "--method=rk4"])
    assert (code, caught) == (2, [])
    report = json.loads(err.splitlines()[-1])
    assert report["error"] == "UnstableStep"
    needed = int(report["message"].split("use at least ")[1].split()[0])
    assert 2 ** 1024 < needed < 2 ** 1030


@pytest.mark.parametrize("argv, exit_code", [
    (["simulate", "--rates", RATES_126, "--p0", "1,0,0", f"--t-end={MAX}", "--steps=3"], 0),
    (["yd", "curve", "--a1=1", "--f1=1", "--d=1", "--e=1", f"--k-max={MAX}", "--steps=4"], 0),
    (["sweep", "--rates", RATES_126, f"--vary=a:0:{MAX}:4", "--vary=b:0:1:2"], 1),
], ids=["simulate", "yd curve", "sweep"])
def test_grid_up_to_the_largest_double_prints_no_overflow_warning(argv, exit_code):
    # linspace's last point overflowed before it was set to the upper bound
    code, out, _, caught = invoke(argv)
    assert (code, caught) == (exit_code, [])
    if code == 0:
        assert out.splitlines()[-1].startswith(f"{MAX!r},")


def test_yd_check_with_subnormal_rates():
    # omega(k_opt) was formed from subnormal terms and failed the internal
    # cross-check (exit 3); it is exact to rounding now
    code, out, err, _ = invoke(["yd", "check", "--a1=1e-12", "--f1=3.5", "--d=5e-324",
                                "--e=5e-324"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["lhs"] == 2.0 and doc["satisfied"] is False
    assert doc["omega_at_kopt"] == 5e-324 * (2.0 - doc["rhs"])
