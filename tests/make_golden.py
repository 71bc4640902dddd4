"""Regenerate the golden CLI outputs under tests/data/golden/.

Run from the repository root after an intentional output-format change:

    python tests/make_golden.py

Review the diff before committing; golden files define the CLI contract.
"""

import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).parent / "data"
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


def main():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, args in CASES.items():
        proc = subprocess.run(
            [sys.executable, "-m", "qtpme", *args], capture_output=True, text=True
        )
        if proc.returncode != 0:
            raise SystemExit(f"{name}: exit {proc.returncode}\n{proc.stderr}")
        (GOLDEN / name).write_text(proc.stdout, encoding="utf-8")
        print(f"wrote {GOLDEN / name} ({len(proc.stdout)} bytes)")


if __name__ == "__main__":
    main()
