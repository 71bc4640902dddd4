"""qtpme benchmark: CLI and library timings on seeded workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tables|trajectory|chains \\
        --seed N --seconds S --trace 0|1

Workloads (closed loop: one child process at a time):

* ``tables``: ``sweep`` over two coefficients of a 3-state template on a
  1000x1000 grid at the default ``--jobs``, plus ``yd curve --steps 200000``.
* ``trajectory``: ``simulate --monitor --steps 100000`` with ``--method rk4``
  and with ``--method exact`` on one 3-state chain.
* ``chains``: ``decompose``, ``spectrum`` and ``structure`` on one chain at
  each of N = 3, 5, 10, 20, 30.

With ``--trace 0`` the run measures, with no wrappers installed:

* ``setup_s``: median over fresh interpreters that import ``qtpme.cli`` and
  build the parser;
* per pass over the workload, each command a fresh ``python -m qtpme``
  process timed from spawn to exit: ``cli_s`` (wall), ``cli_cpu_s``
  (user+sys of the children), ``peak_rss_mib`` (largest child max RSS);
* ``lib_s``: the public library calls computing the same results, warm and
  in-process.

Passes repeat, each on fresh inputs from the seed, for ``--seconds``
give or take half a pass (at least three passes).  ``cli_s``, ``cli_cpu_s``
and ``lib_s`` report the mean over their samples, every other metric the
median (see ``MEAN_METRICS``).

With ``--trace 1`` each command of every workload runs once through
``perfbench/child.py`` with the package's public functions wrapped, and the
per-layer split is reported: layer metrics from all three workloads, and
``cli.*`` and ``trace.overhead_s`` from the selected one, whose commands
also run once unwrapped for the overhead.  ``perfbench/predictions.json``
says which end-to-end metric each layer metric should move, on which
workload.

Every command's output is checked outside the timed window.  "attempted"
counts CLI commands and library passes; "failed" counts those that exited
non-zero, raised or failed their check.  The script prints each metric
with its unit, sample count and quartiles, writes a result record with the
machine's details (and the spans of a traced run) under ``.bench_build/``,
and prints as its last line ``{"correct", "attempted", "failed",
"metrics"}``.  It exits 1 when any output check failed and 2 when the
package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (needs HERE on the path)

MIN_PASSES = 3
SETUP_PROBES = 2
IMPORT_PROBES = 5
# Library seconds per pass.  On tables one library pass takes a few
# hundredths of a second, so a second gives dozens of samples; on the other
# two a pass takes seconds, and this asks for about two of them.
LIB_MIN_S = {"tables": 1.0, "trajectory": 3.0, "chains": 3.0}
# Commands take seconds; a hung one is killed and counted as failed.
COMMAND_TIMEOUT_S = 40.0
# Stop starting passes after this much wall time, so that a run ends
# inside three minutes even when its last command hangs.
RUN_WALL_LIMIT_S = 120.0
SETUP_CODE = "import qtpme.cli; qtpme.cli.build_parser()"
# Reported and recorded, but not BENCHMARK.json metrics: both are 0 on a
# correct run, and failures already show as "failed" in the result line.
REPORT_ONLY_UNITS = {"fail_ratio": "ratio", "qt.fail": "count"}
# On a shared machine the speed of the same code drifts, by up to half
# again, over stretches of ten seconds to minutes, so a run holds only a few
# of them.  The mean weighs every sample and so averages the drift better
# than the median of a few passes does: over five seeds on a shared 2-vCPU
# machine the spread (IQR / median) of per-run values was 0.06 against
# 0.10 for tables cli_s and 0.09 against 0.11 for trajectory cli_s.
# Set-up time and peak RSS stay medians.
MEAN_METRICS = {"cli_s", "cli_cpu_s", "lib_s"}


@dataclass
class ChildResult:
    wall: float
    cpu: float
    maxrss_mib: float
    code: int
    stderr: str


@dataclass
class Tally:
    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failures.append({"command": label, "problems": problems})


def run_child(argv, env, stderr_path) -> ChildResult:
    """Run one process through ``spawn.py`` and return its wall time, CPU
    time, peak RSS, exit code and standard error."""
    launcher = [sys.executable, "-I", "-S", os.path.join(HERE, "spawn.py"),
                str(COMMAND_TIMEOUT_S), stderr_path, "--", *argv]
    done = subprocess.run(launcher, env=env, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=COMMAND_TIMEOUT_S + 30, check=True)
    res = json.loads(done.stdout)
    with open(stderr_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return ChildResult(res["wall"], res["cpu"], res["maxrss_kib"] / 1024.0, res["code"], stderr)


def summarize(values):
    """Median, quartiles, mean and count of a sample."""
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "mean": statistics.fmean(values), "n": len(values), "samples": values}


def reported(name, summary):
    """The value a metric reports: its mean or its median."""
    return summary["mean"] if name in MEAN_METRICS else summary["median"]


def load_average():
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def environment(root):
    import numpy

    sha = None
    git_dir = os.path.join(root, ".git")
    if os.path.isdir(git_dir):  # a plain source tree has no commit to name
        try:
            sha = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
        "load_start": load_average(),
    }


class Bench:
    def __init__(self, args, root):
        self.args = args
        self.root = root
        self.base = os.path.join(root, ".bench_build", "perfbench")
        self.work = os.path.join(self.base, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p)
        self.tally = Tally()
        self.spans = []
        self.started = time.perf_counter()

    def stderr_path(self):
        return os.path.join(self.work, "stderr.txt")

    def out_of_time(self):
        return time.perf_counter() - self.started > RUN_WALL_LIMIT_S

    # ---------------------------------------------------------------- setup

    def setup_times(self, probes):
        """Wall times of fresh interpreters that import the CLI and build
        its parser."""
        argv = [sys.executable, "-c", SETUP_CODE]
        times = []
        for _ in range(probes):
            res = run_child(argv, self.env, self.stderr_path())
            if res.code != 0:
                raise RuntimeError(f"set-up probe exited {res.code}: {res.stderr.strip()}")
            times.append(res.wall)
        return times

    # --------------------------------------------------------- CLI commands

    def run_command(self, cmd, inputs, results, child_spans=None):
        """Run one command in a fresh process, check its output and return
        the child's measurements."""
        if child_spans is None:
            argv = [sys.executable, "-m", "qtpme", *cmd.argv]
        else:
            spans_path, wrap = child_spans
            argv = [sys.executable, os.path.join(HERE, "child.py"), spans_path, wrap,
                    "--", *cmd.argv]
        res = run_child(argv, self.env, self.stderr_path())
        if res.code != 0:
            problems = [f"exit code {res.code}: {res.stderr.strip()}"]
        else:
            problems = workloads.check_output(cmd, inputs, results)
        shown = " ".join(os.path.relpath(a, self.root) if a.startswith(self.work) else a
                         for a in cmd.argv)
        self.tally.record(cmd.label, [f"{shown}: {p}" for p in problems])
        return res

    def lib(self, inputs):
        try:
            elapsed, results = workloads.lib_pass(inputs)
        except Exception as exc:  # noqa: BLE001 - a library failure is a result
            self.tally.record("library", [f"library pass raised {exc!r}"])
            return None, {}
        self.tally.record("library", [])
        return elapsed, results

    def run_pass(self, inputs, samples):
        """One pass: every command in a fresh process, with library passes on
        the same inputs spread between the commands.  Library passes repeat
        until they add up to the workload's ``LIB_MIN_S``, so that a short
        one still gives a steady value from samples taken across the whole
        run; the first one's results serve the output checks."""
        results, lib_time, lib_ok = None, 0.0, True
        walls, cpus, rss = [], [], []
        lib_min_s = LIB_MIN_S[inputs.workload]
        for i, cmd in enumerate(inputs.commands):
            share = lib_min_s * (i + 1) / len(inputs.commands)
            while lib_ok and (results is None or lib_time < share):
                elapsed, lib_results = self.lib(inputs)
                lib_ok = elapsed is not None
                if lib_ok:
                    samples["lib_s"].append(elapsed)
                    lib_time += elapsed
                    results = lib_results if results is None else results
            res = self.run_command(cmd, inputs, results or {})
            walls.append(res.wall)
            cpus.append(res.cpu)
            rss.append(res.maxrss_mib)
            if os.path.exists(cmd.out):
                os.remove(cmd.out)
        samples["cli_s"].append(sum(walls))
        samples["cli_cpu_s"].append(sum(cpus))
        samples["peak_rss_mib"].append(max(rss))

    # ------------------------------------------------------------ end to end

    def end_to_end(self):
        workloads.lib_warmup()
        self.setup_times(1)  # warms the file cache
        samples = {"setup_s": [], "cli_s": [], "cli_cpu_s": [], "peak_rss_mib": [], "lib_s": []}
        deadline = time.perf_counter() + self.args.seconds
        pass_times = []
        index = 0
        # Start another pass only if a pass of the median length ends less
        # than half a pass after the deadline, so that a run lasts --seconds
        # give or take half a pass.
        while index < MIN_PASSES or (time.perf_counter() + statistics.median(pass_times) / 2
                                     <= deadline and not self.out_of_time()):
            pass_start = time.perf_counter()
            # Set-up probes are spread over the run, so that their median
            # samples the machine at the same moments as the passes.
            samples["setup_s"].extend(self.setup_times(SETUP_PROBES))
            pass_dir = os.path.join(self.work, f"pass{index}")
            inputs = workloads.make_inputs(self.args.workload, self.args.seed, index, pass_dir)
            self.run_pass(inputs, samples)
            shutil.rmtree(pass_dir)
            pass_times.append(time.perf_counter() - pass_start)
            index += 1
        return {name: summarize(vals) for name, vals in samples.items() if vals}

    # ---------------------------------------------------------------- traced

    def import_times(self):
        argv = [sys.executable, "-X", "importtime", "-c", SETUP_CODE]
        samples = {"import.site_s": [], "import.numpy_s": [], "import.qtpme_s": []}
        for _ in range(IMPORT_PROBES):
            res = run_child(argv, self.env, self.stderr_path())
            if res.code != 0:
                raise RuntimeError(f"import probe exited {res.code}")
            for name, value in parse_importtime(res.stderr).items():
                samples[name].append(value)
        return samples

    def run_spans(self, cmd, inputs, results, wrap):
        """Run one command through child.py and return its spans."""
        spans_path = os.path.join(self.work, "spans.jsonl")
        res = self.run_command(cmd, inputs, results, (spans_path, wrap))
        spans = []
        if os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                spans = [json.loads(line) for line in fh]
            os.remove(spans_path)
        size = 0
        if os.path.exists(cmd.out):
            size = os.path.getsize(cmd.out)
            os.remove(cmd.out)
        return {"command": cmd.label, "out_bytes": size, "wall": res.wall, "spans": spans}

    def traced_pass(self, inputs, results, paired):
        """One traced pass; with ``paired`` each command also runs once
        unwrapped just before, so the overhead is taken between neighbours.
        Returns the traced and the unwrapped commands' spans."""
        traced, plain = [], []
        for cmd in inputs.commands:
            if paired:
                plain.append(self.run_spans(cmd, inputs, dict(results), "0"))
            traced.append(self.run_spans(cmd, inputs, results, "1"))
        return traced, plain

    def traced(self):
        workloads.lib_warmup()
        samples = self.import_times()
        inputs = {}
        results = {}
        for name in workloads.WORKLOADS:
            inputs[name] = workloads.make_inputs(name, self.args.seed, 0,
                                                 os.path.join(self.work, name))
            _, results[name] = self.lib(inputs[name])
        start = time.perf_counter()
        rounds = 0
        # Start another round only if it fits in the measuring time.
        while rounds == 0 or ((time.perf_counter() - start) * (rounds + 1) / rounds
                              <= self.args.seconds and not self.out_of_time()):
            selected = self.args.workload
            passes = {}
            for name in workloads.WORKLOADS:
                passes[name], plain = self.traced_pass(inputs[name], dict(results[name]),
                                                       paired=name == selected)
                if plain:
                    untraced_main = cli_metrics(plain)["cli.main_s"]
            layer = layer_metrics([c for p in passes.values() for c in p])
            layer.update(cli_metrics(passes[selected]))
            layer["trace.overhead_s"] = layer["cli.main_s"] - untraced_main
            for name, value in layer.items():
                samples.setdefault(name, []).append(value)
            self.spans.extend({"round": rounds, "workload": name, **c}
                              for name, p in passes.items() for c in p)
            rounds += 1
        return {name: summarize(vals) for name, vals in samples.items()}


# -------------------------------------------------------------------------
# Span arithmetic.


def _outermost(spans, names):
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    by_id = {s["id"]: s for s in spans}
    found = []
    for span in spans:
        if span["name"] not in names:
            continue
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] not in names:
            parent = by_id.get(parent["parent"])
        if parent is None:
            found.append(span)
    return found


def _spans(commands, names):
    for c in commands:
        yield from _outermost(c["spans"], names)


def _total(commands, names, where=lambda s: True):
    return sum(s["duration"] for s in _spans(commands, names) if where(s))


def _count(commands, names, key):
    return sum(s["attrs"][key] for s in _spans(commands, names))


DECOMPOSE = {"qt.decompose_2state", "qt.decompose_3state", "qt.decompose_nstate"}


def layer_metrics(commands):
    """Per-layer times and counts from the spans of traced commands."""

    def method(name):
        return lambda s: s["attrs"].get("method") == name

    metrics = {
        "monotonicity.sweep_s": _total(commands, {"monotonicity.sweep"}),
        "monotonicity.sweep_s.jobs1": _total(commands, {"monotonicity.sweep.jobs1"}),
        "monotonicity.cells": _count(commands, {"monotonicity.sweep"}, "cells"),
        "yd.curve_s": _total(commands, {"yd.yd_curve"}),
        "yd.points": _count(commands, {"yd.yd_curve"}, "steps"),
        "integrate.rk4_s": _total(commands, {"integrate.integrate"}, method("rk4")),
        "integrate.exact_s": _total(commands, {"integrate.integrate"}, method("exact")),
        "integrate.monitor_s": _total(commands, {"integrate.monitor"}),
        "integrate.steps": _count(commands, {"integrate.integrate"}, "steps"),
        "qt.calls": sum(1 for _ in _spans(commands, DECOMPOSE)),
        "qt.fail": sum(1 for s in _spans(commands, DECOMPOSE) if s["error"]),
        "pme.spectrum_s": _total(commands, {"pme.spectrum"}),
        "pme.structure_s": _total(commands, {"pme.classify_structure"}),
        "pme.stationary_s": _total(commands, {"pme.stationary_distribution"}),
        "core.rates_s": _total(commands, {"core.rate_matrix_from_json", "core.validate_rates"}),
        "core.generator_s": _total(commands, {"core.generator_from_rates"}),
    }
    for n in workloads.CHAIN_SIZES:
        metrics[f"qt.decompose_s.n{n}"] = _total(
            commands, DECOMPOSE, lambda s, n=n: s["attrs"].get("n") == n)
    return metrics


def cli_metrics(commands):
    """cli.main time, its self time (main minus its direct child spans),
    the writer's time and the bytes written."""
    main = self_time = 0.0
    for c in commands:
        for span in c["spans"]:
            if span["name"] != "cli.main":
                continue
            children = sum(s["duration"] for s in c["spans"]
                           if s["parent"] == span["id"] and s["thread"] == "main")
            main += span["duration"]
            self_time += span["duration"] - children
    return {
        "cli.main_s": main,
        "cli.self_s": self_time,
        "cli.emit_s": _total(commands, {"cli._emit"}),
        "cli.out_bytes": sum(c["out_bytes"] for c in commands),
        "cli.child_share": 1.0 - self_time / main if main else 0.0,
    }


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def parse_importtime(stderr):
    """site, numpy and package import seconds from ``-X importtime``: the
    package figure is every top-level import after ``site`` minus numpy."""
    site = numpy = after_site = 0
    seen_site = False
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if not match:
            continue
        cumulative, depth, name = int(match[2]), len(match[3]) - 1, match[4]
        if name == "numpy":
            numpy = cumulative
        if depth == 0:
            if name == "site":
                site, seen_site = cumulative, True
            elif seen_site:
                after_site += cumulative
    return {"import.site_s": site / 1e6, "import.numpy_s": numpy / 1e6,
            "import.qtpme_s": (after_site - numpy) / 1e6}


# -------------------------------------------------------------------------


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as fh:
        predictions = json.load(fh)
    unpredicted = [m["name"] for m in spec["per_layer"] if m["name"] not in predictions]
    if unpredicted:
        raise RuntimeError(f"predictions.json has no entry for {unpredicted}")
    return spec, predictions


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qtpme", "cli.py")):
        sys.stderr.write(f"no package sources at {os.path.join(root, 'src', 'qtpme')}; "
                         "run from the root of a qtpme checkout\n")
        return 2
    spec, predictions = load_spec(root)
    sys.path.insert(0, os.path.join(root, "src"))

    bench = Bench(args, root)
    os.makedirs(bench.work, exist_ok=True)
    env = environment(root)
    try:
        summary = bench.traced() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    failed = len(bench.tally.failures)
    summary["fail_ratio"] = summarize([failed / max(bench.tally.attempted, 1)])
    env["load_end"] = load_average()
    loaded = max((env["load_start"] or [0])[0], (env["load_end"] or [0])[0])
    env["overloaded"] = loaded > (env["cpu_count"] or 1)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    shown_units = {**REPORT_ONLY_UNITS, **units}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "predictions": {name: predictions[name] for name in units if name in predictions},
        "metrics": {name: {**s, "value": reported(name, s), "unit": shown_units[name]}
                    for name, s in summary.items()},
        "attempted": bench.tally.attempted, "failures": bench.tally.failures,
    }
    results_dir = os.path.join(bench.base, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if bench.spans:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for entry in bench.spans:
                for span in entry.pop("spans"):
                    fh.write(json.dumps({**entry, **span}) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  numpy {env['numpy']}  cpus {env['cpu_count']} "
          f"affinity {env['affinity']}  git {env['git_sha']}")
    print(f"load average start {env['load_start']} end {env['load_end']}"
          + ("  WARNING: load above the core count" if env["overloaded"] else ""))
    print(f"{'metric':<30} {'unit':>8} {'value':>14} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'n':>4}")
    for name, s in summary.items():
        print(f"{name:<30} {shown_units[name]:>8} {reported(name, s):>14.6g} "
              f"{s['median']:>14.6g} {s['q1']:>14.6g} {s['q3']:>14.6g} {s['n']:>4}")
    for failure in bench.tally.failures:
        print(f"FAILED {failure['command']}: {'; '.join(failure['problems'])}")
    print(f"record: {os.path.relpath(stem, root)}.json")

    missing = [name for name in units if name not in summary]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {
        "correct": failed == 0,
        "attempted": bench.tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": reported(name, summary[name]), "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
