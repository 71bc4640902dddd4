"""Command-line front end.

Rate matrices are read from JSON documents of the form::

    {"n": 3, "rates": [[0.0, 3.0, 5.0], [1.0, 0.0, 6.0], [2.0, 4.0, 0.0]]}

where ``rates[dest][src]`` is the transition rate from state ``src`` to
state ``dest`` (rows are destinations) and the diagonal must be zero.
Results go to stdout or ``--out``; errors are reported on stderr both as a
human-readable line and as a one-line JSON document.

Exit codes: 0 success, 1 input validation, 2 solver failure, 3 internal
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from itertools import chain

import numpy as np

from . import monotonicity, pme, qt, yd
from .integrate import Method, integrate, monitor
from .core import (
    COEFF_NAMES,
    ProbabilityVector,
    RateMatrix,
    rate_matrix_from_json,
    rate_matrix_to_json,
)
from .errors import (
    BadAxis,
    NoConvergence,
    QtpmeError,
    SolverError,
    ValidationError,
)

_EXIT_OK = 0
_EXIT_VALIDATION = 1
_EXIT_SOLVER = 2
_EXIT_INTERNAL = 3


class _CliUsageError(ValidationError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; route through our own
    # validation path so exit codes stay meaningful.
    def error(self, message):
        raise _CliUsageError(message)


#: rows per formatted CSV block; bounds the memory of a streamed table
_CSV_BLOCK_ROWS = 4096
#: CSV float format, 17 significant digits (round-trips every double)
_CSV_FLOAT = "%.17g"


def _load_rates(path: str) -> RateMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read rates file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"rates file {path!r} is not valid JSON: {exc}") from exc
    return rate_matrix_from_json(doc)


def _emit(text: str, fh) -> None:
    """Write ``text`` to the open text stream ``fh``.  Every byte a command
    outputs passes here, so a trace of ``_emit`` times the writes apart
    from the formatting."""
    fh.write(text)


def _write(chunks, out_path: str | None) -> None:
    """Stream text chunks to stdout or to a new file at ``out_path``, each
    through ``_emit`` as it is produced."""
    fh = sys.stdout if out_path is None else open(out_path, "w", encoding="utf-8", newline="")
    try:
        for chunk in chunks:
            _emit(chunk, fh)
    finally:
        if out_path is not None:
            fh.close()


def _csv_floats(values: np.ndarray) -> list[str]:
    """CSV text of each float; + 0.0 folds IEEE negative zero into zero."""
    return [_CSV_FLOAT % x for x in (values + 0.0).tolist()]


def _csv_blocks(columns, lead: str = ""):
    """Yield the CSV rows of equal-length 1-D columns, a block at a time.

    Float arrays print with 17 significant digits and negative zero folded
    into zero; any other column (string arrays, lists of preformatted text)
    prints as ``str``.  Every row starts with the fixed text ``lead``.  Each
    block of ``_CSV_BLOCK_ROWS`` rows is formatted by one ``%`` over a flat
    list of values, so no per-row Python code runs.
    """
    is_float = [isinstance(col, np.ndarray) and col.dtype.kind == "f" for col in columns]
    template = lead.replace("%", "%%") + ",".join(
        _CSV_FLOAT if flag else "%s" for flag in is_float) + "\n"
    width = len(columns)
    rows = len(columns[0])
    for start in range(0, rows, _CSV_BLOCK_ROWS):
        stop = min(start + _CSV_BLOCK_ROWS, rows)
        values = [None] * (width * (stop - start))
        for index, (col, flag) in enumerate(zip(columns, is_float)):
            part = col[start:stop]
            if flag:
                part = part + 0.0
            values[index::width] = part.tolist() if isinstance(part, np.ndarray) else part
        yield (template * (stop - start)) % tuple(values)


def _json_doc(obj) -> str:
    return json.dumps(obj, separators=(", ", ": ")) + "\n"


def _parse_p0(text: str) -> ProbabilityVector:
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"cannot parse --p0 {text!r}: {exc}") from exc
    return ProbabilityVector(np.array(values))


def _parse_vary(spec: str):
    parts = spec.split(":")
    if len(parts) != 4:
        raise BadAxis(f"--vary expects name:lo:hi:steps, got {spec!r}")
    name = parts[0]
    try:
        lo, hi = float(parts[1]), float(parts[2])
        steps = int(parts[3])
    except ValueError as exc:
        raise BadAxis(f"cannot parse --vary {spec!r}: {exc}") from exc
    return name, lo, hi, steps


def _cmd_validate(args) -> int:
    w = _load_rates(args.rates)
    _write([_json_doc(rate_matrix_to_json(w))], args.out)
    return _EXIT_OK


def _cmd_decompose(args) -> int:
    w = _load_rates(args.rates)
    if args.method == "closed" and w.n > 3:
        raise ValidationError(
            f"--method closed supports N <= 3 only (got N={w.n}); use --method numeric"
        )
    if args.method == "numeric":
        decomposition = qt.decompose_nstate(w)
    else:
        decomposition = qt.decompose(w)
    _write([_json_doc(qt.decomposition_to_json(decomposition))], args.out)
    return _EXIT_OK


def _cmd_simulate(args) -> int:
    w = _load_rates(args.rates)
    g = pme.generator_from_rates(w)
    p0 = _parse_p0(args.p0)
    traj = integrate(g, p0, args.t_end, args.steps, Method(args.method))

    header = ["t"] + [f"p{i + 1}" for i in range(traj.n)]
    columns = [traj.times] + [traj.states[:, i] for i in range(traj.n)]
    if args.monitor:
        decomposition = None
        try:
            decomposition = qt.decompose(w)
        except (NoConvergence, ValidationError) as exc:
            sys.stderr.write(f"warning: no decomposition for S column ({exc})\n")
        series = monitor(traj, decomposition)
        header.append("H")
        columns.append(series.h_vals)
        if series.s_vals is not None:
            header.append("S")
            columns.append(series.s_vals)
        header.append("S_BS")
        columns.append(series.s_bs_vals)

    _write(chain([",".join(header) + "\n"], _csv_blocks(columns)), args.out)
    return _EXIT_OK


def _cmd_structure(args) -> int:
    w = _load_rates(args.rates)
    report = pme.classify_structure(w)
    _write([_json_doc(pme.structure_report_to_json(report))], args.out)
    return _EXIT_OK


def _cmd_spectrum(args) -> int:
    w = _load_rates(args.rates)
    info = pme.spectrum(pme.generator_from_rates(w))
    _write([_json_doc(pme.spectral_info_to_json(info))], args.out)
    return _EXIT_OK


def _cmd_classify(args) -> int:
    w = _load_rates(args.rates)
    verdict = monotonicity.discriminant(w)
    coords = monotonicity.uvw(w)
    doc = {
        "class": verdict.code,
        "D": verdict.discriminant,
        "xi": verdict.xi,
        "q": verdict.q,
        "u": coords.u,
        "v": coords.v,
        "omega": coords.omega,
    }
    _write([_json_doc(doc)], args.out)
    return _EXIT_OK


def _cmd_sweep(args) -> int:
    vary = args.vary or []
    if len(vary) != 2:
        raise BadAxis(f"sweep needs exactly two --vary specs, got {len(vary)}")
    w = _load_rates(args.rates)
    (ax1, lo1, hi1, n1), (ax2, lo2, hi2, n2) = (_parse_vary(s) for s in vary)
    region = monotonicity.sweep(w, ax1, ax2, ((lo1, hi1), (lo2, hi2)), (n1, n2))

    def blocks():
        # Each grid value is formatted once: axis1 as the fixed start of its
        # grid row, axis2 as preformatted text reused by every grid row.
        text2 = _csv_floats(region.grid2)
        rows = zip(_csv_floats(region.grid1), region.classes, region.discriminants)
        for text1, classes, discs in rows:
            yield from _csv_blocks([text2, classes, discs], lead=text1 + ",")

    _write(chain([f"{ax1},{ax2},class,D\n"], blocks()), args.out)
    return _EXIT_OK


def _yd_params(args) -> yd.YDParams:
    return yd.YDParams(a1=args.a1, f1=args.f1, d=args.d, e=args.e)


def _cmd_yd_curve(args) -> int:
    params = _yd_params(args)
    k_max = args.k_max
    if k_max is None:
        if params.a1 * params.f1 > 0.0:
            k_max = 4.0 * yd.yd_optimal_arousal(params)
        else:
            k_max = 10.0
    curve = yd.yd_curve(params, args.k_min, k_max, args.steps)
    columns = [curve.k_grid, curve.rho1, curve.rho2, curve.rho3]
    _write(chain(["k,rho1,rho2,rho3\n"], _csv_blocks(columns)), args.out)
    return _EXIT_OK


def _cmd_yd_optimal(args) -> int:
    k_opt = yd.yd_optimal_arousal(_yd_params(args))
    _write([_json_doc(float(k_opt))], args.out)
    return _EXIT_OK


def _cmd_yd_check(args) -> int:
    report = yd.yd_consistency(_yd_params(args))
    doc = {
        "lhs": report.lhs,
        "rhs": report.rhs,
        "satisfied": report.satisfied,
        "omega_at_kopt": report.omega_at_kopt,
    }
    _write([_json_doc(doc)], args.out)
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qtpme",
        description=(
            "Quasithermodynamic analysis of Pauli master equations: "
            "validate rate matrices, decompose generators into entropy plus "
            "circulation, simulate, classify relaxation, sweep parameter "
            "regions, and evaluate the arousal-learning model."
        ),
        epilog=(
            "Rate-matrix JSON schema: {\"n\": N, \"rates\": [[...]]} with "
            "rates[dest][src] (rows are destinations) and a zero diagonal."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rates(p):
        p.add_argument("--rates", required=True, help="path to rate-matrix JSON")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p_validate = sub.add_parser("validate", help="validate and echo a rate matrix")
    add_rates(p_validate)
    p_validate.set_defaults(func=_cmd_validate)

    p_dec = sub.add_parser("decompose", help="entropy/circulation decomposition JSON")
    add_rates(p_dec)
    p_dec.add_argument("--method", choices=["closed", "numeric"], default=None,
                       help="closed form (N<=3 only) or numeric solver; default picks by N")
    p_dec.set_defaults(func=_cmd_decompose)

    p_sim = sub.add_parser("simulate", help="trajectory CSV for an initial state")
    add_rates(p_sim)
    p_sim.add_argument("--p0", required=True, help="comma-separated initial probabilities")
    p_sim.add_argument("--t-end", type=float, required=True, dest="t_end")
    p_sim.add_argument("--steps", type=int, required=True)
    p_sim.add_argument("--method", choices=["exact", "rk4"], default="exact")
    p_sim.add_argument("--monitor", action="store_true",
                       help="append H, S (when a decomposition exists), S_BS columns")
    p_sim.set_defaults(func=_cmd_simulate)

    p_cls = sub.add_parser("classify", help="monotonic/oscillatory verdict JSON")
    add_rates(p_cls)
    p_cls.set_defaults(func=_cmd_classify)

    p_struct = sub.add_parser("structure", help="symmetry/balance structure report JSON")
    add_rates(p_struct)
    p_struct.set_defaults(func=_cmd_structure)

    p_spec = sub.add_parser("spectrum", help="generator eigenvalue report JSON")
    add_rates(p_spec)
    p_spec.set_defaults(func=_cmd_spectrum)

    p_sweep = sub.add_parser("sweep", help="region CSV over two varied coefficients")
    add_rates(p_sweep)
    p_sweep.add_argument("--vary", action="append", metavar="name:lo:hi:steps",
                         help=f"axis spec, twice; names from {','.join(COEFF_NAMES)}")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_yd = sub.add_parser("yd", help="arousal-learning model")
    yd_sub = p_yd.add_subparsers(dest="yd_command", required=True)

    def add_yd_params(p):
        p.add_argument("--a1", type=float, required=True, help="primary-learning rate per arousal")
        p.add_argument("--f1", type=float, required=True, help="habit-loss rate per arousal")
        p.add_argument("--d", type=float, required=True, help="secondary-learning rate")
        p.add_argument("--e", type=float, required=True, help="forgetting rate")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p_curve = yd_sub.add_parser("curve", help="stationary occupations vs arousal, CSV")
    add_yd_params(p_curve)
    p_curve.add_argument("--k-min", type=float, default=0.0, dest="k_min")
    p_curve.add_argument("--k-max", type=float, default=None, dest="k_max",
                         help="default: 4x the optimal arousal (10 if undefined)")
    p_curve.add_argument("--steps", type=int, default=101)
    p_curve.set_defaults(func=_cmd_yd_curve)

    p_opt = yd_sub.add_parser("optimal", help="arousal maximizing the well-trained state")
    add_yd_params(p_opt)
    p_opt.set_defaults(func=_cmd_yd_optimal)

    p_check = yd_sub.add_parser("check", help="balanced-training consistency report JSON")
    add_yd_params(p_check)
    p_check.set_defaults(func=_cmd_yd_check)

    return parser


def _report_error(exc: Exception, code: int) -> int:
    sys.stderr.write(f"error: {exc}\n")
    sys.stderr.write(json.dumps({
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }) + "\n")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            args = parser.parse_args(argv)
            return args.func(args)
    except BrokenPipeError:
        # The reader of stdout left early (``qtpme sweep ... | head``): not a
        # failure of the command.  Point stdout at the null device so that
        # the interpreter's final flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_OK
    except ValidationError as exc:
        return _report_error(exc, _EXIT_VALIDATION)
    except SolverError as exc:
        return _report_error(exc, _EXIT_SOLVER)
    except QtpmeError as exc:
        return _report_error(exc, _EXIT_INTERNAL)
    except Exception as exc:  # noqa: BLE001 - last-resort structured report
        return _report_error(exc, _EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
