"""Seeded inputs, CLI commands, library calls and output checks per workload.

Every workload is a list of CLI commands over input files drawn from
``(seed, workload, pass index)``; the same triple always gives the same
files.  Rates are drawn log-uniform in [0.1, 10].  The library side makes
the public calls that compute the same results, and the checks read the
CLI's output files back and compare them with independent recomputation.
"""

from __future__ import annotations

import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

RATE_LO, RATE_HI = 0.1, 10.0
SWEEP_STEPS = 1000
YD_STEPS = 200_000
SIM_STEPS = 100_000
SIM_T_END = 10.0
CHAIN_SIZES = (3, 5, 10, 20, 30)
COEFF_NAMES = ("a", "b", "c", "d", "e", "f")
# Decomposition residual tolerance of qt.decompose_nstate (Frobenius norm).
DECOMPOSE_TOL = 1e-8

WORKLOADS = ("tables", "trajectory", "chains")
_WORKLOAD_STREAM = {name: i for i, name in enumerate(WORKLOADS, start=1)}


@dataclass
class Command:
    """One CLI invocation: ``python -m qtpme <argv>`` writing ``out``."""

    label: str
    argv: list[str]
    out: str


@dataclass
class PassInputs:
    """Inputs of one pass: CLI commands plus what the library side needs."""

    workload: str
    commands: list[Command]
    lib: dict = field(default_factory=dict)


def _log_uniform(rng, size):
    return np.exp(rng.uniform(np.log(RATE_LO), np.log(RATE_HI), size))


def _random_rates(rng, n):
    w = _log_uniform(rng, (n, n))
    np.fill_diagonal(w, 0.0)
    return w


def _write_rates(path, w):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": int(w.shape[0]), "rates": w.tolist()}, fh)


def make_inputs(workload: str, seed: int, index: int, workdir: str) -> PassInputs:
    """Write the input files of pass ``index`` into ``workdir``."""
    rng = np.random.default_rng([seed, _WORKLOAD_STREAM[workload], index])
    os.makedirs(workdir, exist_ok=True)

    def path(name):
        return os.path.join(workdir, name)

    if workload == "tables":
        a, b, c, d, e, f = _log_uniform(rng, 6)
        w = np.array([[0.0, c, e], [a, 0.0, f], [b, d, 0.0]])
        _write_rates(path("template.json"), w)
        ax1, ax2 = (COEFF_NAMES[i] for i in rng.choice(6, size=2, replace=False))
        a1, f1, yd_d, yd_e = (float(x) for x in _log_uniform(rng, 4))
        yd_args = ["--a1", repr(a1), "--f1", repr(f1), "--d", repr(yd_d), "--e", repr(yd_e)]
        vary = [f"{ax}:{RATE_LO!r}:{RATE_HI!r}:{SWEEP_STEPS}" for ax in (ax1, ax2)]
        commands = [
            Command("sweep", ["sweep", "--rates", path("template.json"),
                              "--vary", vary[0], "--vary", vary[1],
                              "--out", path("sweep.csv")], path("sweep.csv")),
            Command("yd_curve", ["yd", "curve", *yd_args, "--steps", str(YD_STEPS),
                                 "--out", path("yd_curve.csv")], path("yd_curve.csv")),
        ]
        lib = {"w": w, "axes": (ax1, ax2), "yd": (a1, f1, yd_d, yd_e)}
    elif workload == "trajectory":
        w = _random_rates(rng, 3)
        _write_rates(path("rates.json"), w)
        p0 = rng.dirichlet(np.ones(3))
        p0_text = ",".join(repr(float(x)) for x in p0)
        commands = [
            Command(f"simulate_{method}",
                    ["simulate", "--rates", path("rates.json"), "--p0", p0_text,
                     "--t-end", repr(SIM_T_END), "--steps", str(SIM_STEPS),
                     "--method", method, "--monitor", "--out", path(f"sim_{method}.csv")],
                    path(f"sim_{method}.csv"))
            for method in ("rk4", "exact")
        ]
        lib = {"w": w, "p0": np.array([float(x) for x in p0_text.split(",")])}
    elif workload == "chains":
        commands = []
        chains = {}
        for n in CHAIN_SIZES:
            w = _random_rates(rng, n)
            rates = path(f"chain{n}.json")
            _write_rates(rates, w)
            chains[n] = w
            for cmd in ("decompose", "spectrum", "structure"):
                out = path(f"{cmd}{n}.json")
                commands.append(Command(f"{cmd}_n{n}", [cmd, "--rates", rates, "--out", out], out))
        lib = {"chains": chains}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return PassInputs(workload, commands, lib)


# --------------------------------------------------------------------------
# Library side: the public calls that compute what the commands write.


def lib_pass(inputs: PassInputs) -> tuple[float, dict]:
    """Run the workload's library calls warm and in-process.

    Returns the elapsed seconds and the results the output checks reuse.
    """
    import qtpme
    from qtpme import monotonicity, pme, qt, yd
    from qtpme.integrate import Method

    lib = inputs.lib
    results = {}
    if inputs.workload == "tables":
        template = qtpme.validate_rates(lib["w"])
        ax1, ax2 = lib["axes"]
        params = yd.YDParams(*lib["yd"])
        jobs = os.cpu_count() or 1
        start = time.perf_counter()
        region = monotonicity.sweep(template, ax1, ax2, ((RATE_LO, RATE_HI),) * 2,
                                    (SWEEP_STEPS, SWEEP_STEPS), jobs=jobs)
        yd.yd_curve(params, 0.0, 4.0 * yd.yd_optimal_arousal(params), YD_STEPS)
        elapsed = time.perf_counter() - start
        results["sweep_D"] = region.discriminants
    elif inputs.workload == "trajectory":
        w = qtpme.validate_rates(lib["w"])
        p0 = qtpme.ProbabilityVector(lib["p0"])
        start = time.perf_counter()
        g = qtpme.generator_from_rates(w)
        for method in (Method.RK4, Method.EXACT):
            traj = qtpme.integrate(g, p0, SIM_T_END, SIM_STEPS, method)
            qtpme.monitor(traj, qt.decompose_3state(w))
        elapsed = time.perf_counter() - start
    else:
        mats = {n: qtpme.validate_rates(w) for n, w in lib["chains"].items()}
        start = time.perf_counter()
        for n, w in mats.items():
            qt.decompose_3state(w) if n == 3 else qt.decompose_nstate(w)
            pme.spectrum(pme.generator_from_rates(w))
            pme.classify_structure(w)
        elapsed = time.perf_counter() - start
    return elapsed, results


def lib_warmup() -> None:
    """Touch every library path once on small inputs, so lazy set-up inside
    numpy and the package is done before anything is timed."""
    import qtpme
    from qtpme import monotonicity, pme, qt, yd
    from qtpme.integrate import Method

    w3 = qtpme.RateMatrix.from_coeffs(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    monotonicity.sweep(w3, "a", "e", ((0.1, 10.0), (0.1, 10.0)), (8, 8), jobs=os.cpu_count() or 1)
    params = yd.YDParams(1.0, 2.0, 3.0, 4.0)
    yd.yd_curve(params, 0.0, 4.0 * yd.yd_optimal_arousal(params), 16)
    g3 = qtpme.generator_from_rates(w3)
    p0 = qtpme.ProbabilityVector(np.array([1.0, 0.0, 0.0]))
    for method in (Method.RK4, Method.EXACT):
        qtpme.monitor(qtpme.integrate(g3, p0, 1.0, 16, method), qt.decompose_3state(w3))
    w5 = qtpme.validate_rates(_random_rates(np.random.default_rng(0), 5))
    for w in (w3, w5):
        qt.decompose_3state(w) if w.n == 3 else qt.decompose_nstate(w)
        pme.spectrum(pme.generator_from_rates(w))
        pme.classify_structure(w)


# --------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means correct.


# Sweep class codes as numbers, so every CSV column parses as a float.
CLASS_CODES = {"M": 0.0, "O": 1.0, "B": 2.0}
_CLASS_DIGITS = bytes.maketrans(b"MOB", b"012")


def _read_csv(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    header, _, body = raw.partition(b"\n")
    # The body holds only numbers and class letters; the header keeps its names.
    body = body.translate(_CLASS_DIGITS)
    rows = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2) if body else np.empty((0, 0))
    return header.decode().split(","), rows


def _check_sweep(cmd: Command, inputs: PassInputs, results: dict) -> list[str]:
    from qtpme import monotonicity

    header, rows = _read_csv(cmd.out)
    ax1, ax2 = inputs.lib["axes"]
    problems = []
    if header != [ax1, ax2, "class", "D"]:
        problems.append(f"sweep header {header}")
    if rows.shape != (SWEEP_STEPS * SWEEP_STEPS, 4):
        return problems + [f"sweep has {rows.shape} rows x columns, expected "
                           f"({SWEEP_STEPS * SWEEP_STEPS}, 4)"]
    grid = np.linspace(RATE_LO, RATE_HI, SWEEP_STEPS)
    if not (np.array_equal(rows[:, 0], np.repeat(grid, SWEEP_STEPS))
            and np.array_equal(rows[:, 1], np.tile(grid, SWEEP_STEPS))):
        problems.append("sweep grid columns differ from the linspace grid")
    disc = rows[:, 3]
    expected = np.asarray(results["sweep_D"]).ravel()
    mismatched = np.count_nonzero(disc != expected)
    if mismatched:
        problems.append(f"sweep D differs from the library sweep in {mismatched} cells")
    coeffs = dict(zip(COEFF_NAMES, (inputs.lib["w"][i, j] for i, j in
                                    ((1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2)))))
    xi = sum(v for k, v in coeffs.items() if k not in (ax1, ax2)) + rows[:, 0] + rows[:, 1]
    want = monotonicity.classify_discriminant(expected, xi)
    want_codes = np.select([want == code for code in CLASS_CODES], list(CLASS_CODES.values()))
    wrong = np.count_nonzero(rows[:, 2] != want_codes)
    if wrong:
        problems.append(f"sweep class code disagrees with classify_discriminant in {wrong} cells")
    return problems


def _check_yd_curve(cmd: Command, inputs: PassInputs, results: dict) -> list[str]:
    header, rows = _read_csv(cmd.out)
    if header != ["k", "rho1", "rho2", "rho3"] or rows.shape != (YD_STEPS, 4):
        return [f"yd curve header {header} shape {rows.shape}"]
    drift = float(np.abs(rows[:, 1:].sum(axis=1) - 1.0).max())
    return [] if drift <= 1e-12 else [f"yd curve rows sum to 1 only within {drift:.3e}"]


def _check_simulate(cmd: Command, inputs: PassInputs, results: dict) -> list[str]:
    header, rows = _read_csv(cmd.out)
    if header != ["t", "p1", "p2", "p3", "H", "S", "S_BS"] or rows.shape != (SIM_STEPS + 1, 7):
        return [f"simulate header {header} shape {rows.shape}"]
    problems = []
    drift = float(np.abs(rows[:, 1:4].sum(axis=1) - 1.0).max())
    if drift > 1e-9:
        problems.append(f"state rows sum to 1 only within {drift:.3e}")
    s = rows[:, 5]
    # Rounding noise of one ulp-scale step is not a decrease of S.
    drop = float(-np.diff(s).min())
    if drop > 1e-12 * max(1.0, float(np.abs(s).max())):
        problems.append(f"S decreases by {drop:.3e}")
    results[cmd.label] = rows[:, 1:4]
    if "simulate_rk4" in results and "simulate_exact" in results:
        gap = float(np.abs(results["simulate_rk4"] - results["simulate_exact"]).max())
        if gap > 1e-9:
            problems.append(f"rk4 and exact differ by {gap:.3e}")
    return problems


def _check_decompose(cmd: Command, inputs: PassInputs, results: dict) -> list[str]:
    with open(cmd.out, encoding="utf-8") as fh:
        doc = json.load(fh)
    n = int(cmd.label.rsplit("_n", 1)[1])
    g = _generator(inputs.lib["chains"][n])
    sigma = np.array(doc["sigma"])
    k = np.array(doc["k"])
    proj = np.eye(n) - np.ones((n, n)) / n
    problems = []
    residual = float(np.linalg.norm((n * proj + k) @ sigma - g))
    if residual > DECOMPOSE_TOL:
        problems.append(f"reconstruction residual {residual:.3e} > {DECOMPOSE_TOL:g}")
    scale = max(1.0, float(np.abs(k).max()))
    if np.abs(k + k.T).max() > 1e-12 * scale:
        problems.append("K is not antisymmetric")
    if max(np.abs(k.sum(axis=0)).max(), np.abs(k.sum(axis=1)).max()) > 1e-9 * scale:
        problems.append("K rows or columns do not sum to zero")
    if not np.array_equal(sigma, sigma.T):
        problems.append("sigma is not symmetric")
    if sigma[n - 2, n - 1] != 0.0:
        problems.append(f"gauge entry sigma[{n - 2}][{n - 1}] = {sigma[n - 2, n - 1]!r}")
    return problems


def _check_spectrum(cmd: Command, inputs: PassInputs, results: dict) -> list[str]:
    with open(cmd.out, encoding="utf-8") as fh:
        doc = json.load(fh)
    n = int(cmd.label.rsplit("_n", 1)[1])
    g = _generator(inputs.lib["chains"][n])
    got = np.array([complex(v["re"], v["im"]) for v in doc["eigenvalues"]])
    want = np.linalg.eigvals(g)
    if got.size != want.size:
        return [f"spectrum has {got.size} eigenvalues, expected {want.size}"]
    # Match each reference eigenvalue to its nearest reported one.
    dist = np.abs(want[:, None] - got[None, :]).min(axis=1).max()
    tol = 1e-9 * max(1.0, float(np.abs(want).max()))
    return [] if dist <= tol else [f"spectrum differs from numpy eigvals by {dist:.3e}"]


def _check_structure(cmd: Command, inputs: PassInputs, results: dict) -> list[str]:
    with open(cmd.out, encoding="utf-8") as fh:
        doc = json.load(fh)
    n = int(cmd.label.rsplit("_n", 1)[1])
    g = _generator(inputs.lib["chains"][n])
    p = np.array(doc["stationary"])
    problems = []
    if abs(p.sum() - 1.0) > 1e-9 or p.min() < -1e-12:
        problems.append(f"stationary vector is not a probability vector (sum {p.sum()!r})")
    null = float(np.abs(g @ p).max())
    if null > 1e-9 * max(1.0, float(np.abs(g).max())):
        problems.append(f"stationary vector is not a null vector of G (|G p| = {null:.3e})")
    return problems


def _generator(w):
    g = np.array(w, dtype=float)
    np.fill_diagonal(g, -g.sum(axis=0))
    return g


_CHECKS = {
    "sweep": _check_sweep,
    "yd_curve": _check_yd_curve,
    "simulate_rk4": _check_simulate,
    "simulate_exact": _check_simulate,
    "decompose": _check_decompose,
    "spectrum": _check_spectrum,
    "structure": _check_structure,
}


def check_output(cmd: Command, inputs: PassInputs, results: dict) -> list[str]:
    """Problems with one command's output file; ``results`` holds the
    library results of the same pass and collects state across commands."""
    check = _CHECKS.get(cmd.label) or _CHECKS[cmd.label.rsplit("_n", 1)[0]]
    try:
        return check(cmd, inputs, results)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"cannot read output {os.path.basename(cmd.out)}: {exc!r}"]
