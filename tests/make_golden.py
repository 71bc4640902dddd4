"""Regenerate the golden CLI outputs under tests/data/golden/.

Run from the repository root after an intentional output-format change:

    python tests/make_golden.py

Review the diff before committing; golden files define the CLI contract.
To see which golden files the current code would change, without writing
any file:

    python tests/make_golden.py --check

This regenerates every case in memory, prints a unified diff for each file
whose bytes would change, and exits 1 if there is any.
"""

import argparse
import difflib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
GOLDEN = DATA / "golden"

CASES = {
    "validate.json": ["validate", "--rates", str(DATA / "rates_126.json")],
    "decompose_closed.json": ["decompose", "--rates", str(DATA / "rates_126.json"),
                              "--method", "closed"],
    "decompose_2state.json": ["decompose", "--rates", str(DATA / "rates_2state.json")],
    "classify.json": ["classify", "--rates", str(DATA / "rates_cyclic.json")],
    "structure.json": ["structure", "--rates", str(DATA / "rates_cyclic.json")],
    "spectrum.json": ["spectrum", "--rates", str(DATA / "rates_126.json")],
    "simulate_rk4.csv": ["simulate", "--rates", str(DATA / "rates_cyclic.json"),
                         "--p0", "1,0,0", "--t-end", "1", "--steps", "8",
                         "--method", "rk4", "--monitor"],
    "simulate_exact.csv": ["simulate", "--rates", str(DATA / "rates_cyclic.json"),
                           "--p0", "1,0,0", "--t-end", "1", "--steps", "8",
                           "--method", "exact", "--monitor"],
    "sweep.csv": ["sweep", "--rates", str(DATA / "rates_cyclic.json"),
                  "--vary", "e:0:2:5", "--vary", "c:0:2:5"],
    "yd_curve.csv": ["yd", "curve", "--a1", "1", "--f1", "1", "--d", "1", "--e", "1",
                     "--k-min", "0", "--k-max", "4", "--steps", "9"],
    "yd_optimal.json": ["yd", "optimal", "--a1", "1", "--f1", "1", "--d", "4", "--e", "1"],
    "yd_check.json": ["yd", "check", "--a1", "1", "--f1", "1", "--d", "1", "--e", "1"],
}


def run_case(name: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "qtpme", *CASES[name]], capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise SystemExit(f"{name}: exit {proc.returncode}\n{proc.stderr}")
    return proc.stdout


def check() -> int:
    changed = []
    for name in CASES:
        path = GOLDEN / name
        label = path.relative_to(ROOT)
        old = path.read_text(encoding="utf-8") if path.exists() else ""
        new = run_case(name)
        if new != old:
            changed.append(label)
            sys.stdout.writelines(difflib.unified_diff(
                old.splitlines(keepends=True), new.splitlines(keepends=True),
                fromfile=f"{label} (golden)", tofile=f"{label} (current code)"))
    for label in changed:
        print(f"would change {label}")
    if not changed:
        print(f"all {len(CASES)} golden files unchanged")
    return 1 if changed else 0


def main():
    parser = argparse.ArgumentParser(description="Regenerate or check the golden CLI outputs.")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; list and diff the files that would change")
    if parser.parse_args().check:
        sys.exit(check())
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in CASES:
        text = run_case(name)
        (GOLDEN / name).write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / name} ({len(text)} bytes)")


if __name__ == "__main__":
    main()
