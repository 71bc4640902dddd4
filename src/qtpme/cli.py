"""Command-line front end.

Rate matrices are read from JSON documents of the form::

    {"n": 3, "rates": [[0.0, 3.0, 5.0], [1.0, 0.0, 6.0], [2.0, 4.0, 0.0]]}

where ``rates[dest][src]`` is the transition rate from state ``src`` to
state ``dest`` (rows are destinations) and the diagonal must be zero.
Each command returns its output, a JSON document or a CSV table after its
check pass, and ``main`` writes it through the one writer, ``_write``, so
stdout and ``--out`` get the same bytes.  Errors are reported on stderr
both as a human-readable line and as a one-line JSON document; a warning,
such as that of an all-zero rate matrix, as one ``warning: <message>`` line.

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
from .integrate import Method, _monitor_rows, _propagate_blocks
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


#: the sweep's class letter of each class index, as bytes
_CLASS_LETTERS = monotonicity._LETTERS.astype("S1")


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
    through ``_emit`` as it is produced, then flush it, so that a reader
    that left early raises here.  An ``--out`` path that cannot be opened
    is an input error; a failure once the file is open is not."""
    try:
        fh = sys.stdout if out_path is None else open(out_path, "w", encoding="utf-8",
                                                      newline="")
    except OSError as exc:
        raise ValidationError(f"cannot write output file {out_path!r}: {exc}") from exc
    try:
        for chunk in chunks:
            _emit(chunk, fh)
        fh.flush()
    finally:
        if out_path is not None:
            fh.close()


def _json(doc) -> list[str]:
    return [json.dumps(doc) + "\n"]


def _table(header, blocks, columns):
    """The text of a CSV table with the column names ``header``, formatted
    as it is written.  ``blocks()`` is evaluated once first, keeping
    nothing, so that every input error is raised before the first byte;
    ``columns`` turns each block into a list of equal-length 1-D columns.

    Floats print exactly as C ``%.17g`` with negative zero folded into
    zero; other columns (bytes or str arrays, lists of text) print their
    ASCII text.  See :mod:`qtpme.csvtext`, imported here, on first use, so
    that commands writing no CSV do not load it.
    """
    from . import csvtext

    for _ in blocks():
        pass
    return chain([",".join(header) + "\n"], csvtext.blocks(map(columns, blocks())))


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


def _cmd_validate(args):
    return _json(rate_matrix_to_json(_load_rates(args.rates)))


def _cmd_decompose(args):
    w = _load_rates(args.rates)
    if args.method == "closed" and w.n > 3:
        raise ValidationError(
            f"--method closed supports N <= 3 only (got N={w.n}); use --method numeric"
        )
    solve = qt.decompose_nstate if args.method == "numeric" else qt.decompose
    return _json(qt.decomposition_to_json(solve(w)))


def _cmd_simulate(args):
    w = _load_rates(args.rates)
    g = pme.generator_from_rates(w)
    p0 = _parse_p0(args.p0)
    blocks = _propagate_blocks(g, p0, args.t_end, args.steps, Method(args.method))
    header = ["t"] + [f"p{i + 1}" for i in range(g.n)]
    monitor_rows = None
    if args.monitor:
        sigma = None
        try:
            sigma = qt.decompose(w).entropy.sigma
        except (NoConvergence, ValidationError) as exc:
            sys.stderr.write(f"warning: no decomposition for S column ({exc})\n")
        header += ["H", "S_BS"] if sigma is None else ["H", "S", "S_BS"]
        monitor_rows = _monitor_rows(sigma, g.n)

    def columns(block):
        _, times, cols = block
        if monitor_rows is None:
            return [times, *cols]
        return [times, *cols, *monitor_rows(cols)]

    return _table(header, blocks, columns)


def _cmd_structure(args):
    report = pme.classify_structure(_load_rates(args.rates))
    return _json(pme.structure_report_to_json(report))


def _cmd_spectrum(args):
    info = pme.spectrum(pme.generator_from_rates(_load_rates(args.rates)))
    return _json(pme.spectral_info_to_json(info))


def _cmd_classify(args):
    w = _load_rates(args.rates)
    verdict = monotonicity.discriminant(w)
    coords = monotonicity.uvw(w)
    return _json({
        "class": verdict.code,
        "D": verdict.discriminant,
        "xi": verdict.xi,
        "q": verdict.q,
        "u": coords.u,
        "v": coords.v,
        "omega": coords.omega,
    })


def _cmd_sweep(args):
    vary = args.vary or []
    if len(vary) != 2:
        raise BadAxis(f"sweep needs exactly two --vary specs, got {len(vary)}")
    w = _load_rates(args.rates)
    (ax1, lo1, hi1, n1), (ax2, lo2, hi2, n2) = (_parse_vary(s) for s in vary)
    grid1, grid2, blocks = monotonicity._sweep_blocks(
        w, ax1, ax2, ((lo1, hi1), (lo2, hi2)), (n1, n2))
    # each axis value is formatted once, as fixed-width text
    from . import csvtext

    text1, text2 = csvtext.float_text(grid1), csvtext.float_text(grid2)

    def columns(block):
        rows, cols, disc, index = block
        height, width = disc.shape
        return [np.repeat(text1[rows], width), np.tile(text2[cols], height),
                _CLASS_LETTERS.take(index).ravel(), disc.ravel()]

    return _table([ax1, ax2, "class", "D"], blocks, columns)


def _yd_params(args) -> yd.YDParams:
    return yd.YDParams(a1=args.a1, f1=args.f1, d=args.d, e=args.e)


def _cmd_yd_curve(args):
    params = _yd_params(args)
    k_max = args.k_max
    if k_max is None:
        if min(params.a1, params.f1, params.d, params.e) > 0.0:
            k_max = 4.0 * yd.yd_optimal_arousal(params)
            if k_max == np.inf:
                raise ValidationError("the default --k-max, 4x the optimal arousal, "
                                      "is outside the float range; give --k-max")
        else:
            k_max = 10.0
        if k_max <= args.k_min < np.inf:
            raise ValidationError(f"the default --k-max, {k_max!r}, is not above "
                                  f"--k-min {args.k_min!r}; give --k-max")
    blocks = yd._curve_blocks(params, args.k_min, k_max, args.steps)
    return _table(["k", "rho1", "rho2", "rho3"], blocks, list)


def _cmd_yd_optimal(args):
    return _json(float(yd.yd_optimal_arousal(_yd_params(args))))


def _cmd_yd_check(args):
    report = yd.yd_consistency(_yd_params(args))
    return _json({
        "lhs": report.lhs,
        "rhs": report.rhs,
        "satisfied": report.satisfied,
        "omega_at_kopt": report.omega_at_kopt,
    })


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

    def add_yd_params(p):
        p.add_argument("--a1", type=float, required=True, help="primary-learning rate per arousal")
        p.add_argument("--f1", type=float, required=True, help="habit-loss rate per arousal")
        p.add_argument("--d", type=float, required=True, help="secondary-learning rate")
        p.add_argument("--e", type=float, required=True, help="forgetting rate")

    def command(parent, name, func, help, add_inputs):
        p = parent.add_parser(name, help=help)
        add_inputs(p)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.set_defaults(func=func)
        return p

    command(sub, "validate", _cmd_validate, "validate and echo a rate matrix", add_rates)
    command(sub, "decompose", _cmd_decompose, "entropy/circulation decomposition JSON",
            add_rates).add_argument(
        "--method", choices=["closed", "numeric"], default=None,
        help="closed form (N<=3 only) or numeric solver; default picks by N")

    p_sim = command(sub, "simulate", _cmd_simulate, "trajectory CSV for an initial state",
                    add_rates)
    p_sim.add_argument("--p0", required=True, help="comma-separated initial probabilities")
    p_sim.add_argument("--t-end", type=float, required=True, dest="t_end")
    p_sim.add_argument("--steps", type=int, required=True)
    p_sim.add_argument("--method", choices=["exact", "rk4"], default="exact")
    p_sim.add_argument("--monitor", action="store_true",
                       help="append H, S (when a decomposition exists), S_BS columns")

    command(sub, "classify", _cmd_classify, "monotonic/oscillatory verdict JSON", add_rates)
    command(sub, "structure", _cmd_structure, "symmetry/balance structure report JSON",
            add_rates)
    command(sub, "spectrum", _cmd_spectrum, "generator eigenvalue report JSON", add_rates)
    command(sub, "sweep", _cmd_sweep, "region CSV over two varied coefficients",
            add_rates).add_argument(
        "--vary", action="append", metavar="name:lo:hi:steps",
        help=f"axis spec, twice; names from {','.join(COEFF_NAMES)}")

    yd_sub = sub.add_parser("yd", help="arousal-learning model").add_subparsers(
        dest="yd_command", required=True)
    p_curve = command(yd_sub, "curve", _cmd_yd_curve, "stationary occupations vs arousal, CSV",
                      add_yd_params)
    p_curve.add_argument("--k-min", type=float, default=0.0, dest="k_min")
    p_curve.add_argument("--k-max", type=float, default=None, dest="k_max",
                         help="default: 4x the optimal arousal (10 unless a1, f1, d, e > 0)")
    p_curve.add_argument("--steps", type=int, default=101)
    command(yd_sub, "optimal", _cmd_yd_optimal, "arousal maximizing the well-trained state",
            add_yd_params)
    command(yd_sub, "check", _cmd_yd_check, "balanced-training consistency report JSON",
            add_yd_params)

    return parser


def _report_error(exc: Exception, code: int) -> int:
    sys.stderr.write(f"error: {exc}\n")
    sys.stderr.write(json.dumps({
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }) + "\n")
    return code


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    sys.stderr.write(f"warning: {message}\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _show_warning  # restored on leaving the block
            args = parser.parse_args(argv)
            _write(args.func(args), args.out)
            return _EXIT_OK
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
    except Exception as exc:  # noqa: BLE001 - last-resort structured report
        return _report_error(exc, _EXIT_INTERNAL)
