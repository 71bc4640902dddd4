"""Package contracts: what ``import qtpme`` loads, which object each public
name is in every import order, and how the command-line entry point starts.

Each check runs in a fresh interpreter, because import order and the
environment at numpy's load are the subject."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"

# the modules a tracer reads from sys.modules after ``import qtpme.cli``
CLI_MODULES = ("core", "pme", "qt", "integrate", "monotonicity", "yd")


def run_python(code, env=None):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    # the last line is the check's result; a command run in-process prints before it
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_import_loads_no_numpy():
    assert run_python("import json, sys, qtpme; print(json.dumps('numpy' in sys.modules))") is False


@pytest.mark.parametrize("first", [
    "",
    "from qtpme.integrate import Trajectory",
    "import qtpme.integrate",
    "import qtpme.cli",
    "from qtpme import integrate",
])
def test_integrate_is_the_function_in_every_import_order(first):
    code = (
        f"import json, types\n{first}\nimport qtpme\n"
        "from qtpme.integrate import Trajectory\nimport qtpme.cli\n"
        "print(json.dumps([isinstance(qtpme.integrate, types.FunctionType),\n"
        "                  qtpme.integrate.__module__]))"
    )
    assert run_python(code) == [True, "qtpme.integrate"]


def test_public_names_resolve_and_are_listed():
    code = (
        "import json, qtpme\n"
        "names = qtpme.__all__\n"
        "resolved = [n for n in names if getattr(qtpme, n).__module__.startswith('qtpme.')]\n"
        "listed = sorted(set(names) - set(dir(qtpme)))\n"
        "star = {}\n"
        "exec('from qtpme import *', star)\n"
        "print(json.dumps([names, len(resolved), listed, sorted(set(names) - set(star)),\n"
        "                  sorted(qtpme._SUBMODULE_OF), qtpme.__version__]))"
    )
    names, resolved, unlisted, missing, table, version = run_python(code)
    assert len(set(names)) == len(names) == resolved == 44
    assert unlisted == missing == []
    assert table == sorted(names)
    assert version == "0.1.0"


def test_submodules_are_package_attributes():
    code = (
        "import json, qtpme\n"
        "print(json.dumps([qtpme.core.__name__, qtpme.errors.__name__, qtpme.yd.__name__,\n"
        "                  hasattr(qtpme, 'no_such_name')]))"
    )
    assert run_python(code) == ["qtpme.core", "qtpme.errors", "qtpme.yd", False]


def test_cli_import_loads_the_traced_modules():
    code = (
        "import json, sys, qtpme.cli\n"
        f"print(json.dumps([f'qtpme.{{m}}' in sys.modules for m in {CLI_MODULES!r}]))"
    )
    assert run_python(code) == [True] * len(CLI_MODULES)


def test_importtime_reports_every_cli_module():
    # a submodule loaded by the lazy root gets its own line, not the
    # importer's self time
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qtpme.cli"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    reported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert {f"qtpme.{m}" for m in CLI_MODULES} <= reported


# records the variable as numpy starts to load, which is when OpenBLAS reads it
MAIN_CODE = (
    "import json, os, sys\n"
    "seen = []\n"
    "def hook(event, args):\n"
    "    if event == 'import' and args[0] == 'numpy':\n"
    "        seen.append(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
    "sys.addaudithook(hook)\n"
    "import qtpme.__main__ as m\n"
    "numpy_before = 'numpy' in sys.modules\n"
    f"code = m.main(['validate', '--rates', {str(DATA / 'rates_cyclic.json')!r}])\n"
    "print(json.dumps([numpy_before, code, seen]))"
)


def test_entry_point_sets_thread_timeout_before_numpy():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    assert run_python(MAIN_CODE, env) == [False, 0, ["4"]]


def test_entry_point_keeps_a_preset_thread_timeout():
    env = dict(os.environ, OPENBLAS_THREAD_TIMEOUT="30")
    assert run_python(MAIN_CODE, env) == [False, 0, ["30"]]


@pytest.mark.parametrize("run, frozen", [
    (f"import qtpme.__main__ as m\n"
     f"m.main(['validate', '--rates', {str(DATA / 'rates_cyclic.json')!r}])", True),
    ("import qtpme.cli", False),
], ids=["entry point", "import"])
def test_only_the_entry_point_freezes_the_import_heap(run, frozen):
    # the collector is on for the command either way
    code = f"import gc, json\n{run}\nprint(json.dumps([gc.isenabled(), gc.get_freeze_count() > 0]))"
    assert run_python(code) == [True, frozen]


def test_cli_import_loads_no_dataclasses():
    code = "import json, sys, qtpme.cli\nprint(json.dumps('dataclasses' in sys.modules))"
    assert run_python(code) is False


def run_qtpme(*args, prefix=()):
    return subprocess.run([sys.executable, *prefix, "-m", "qtpme", *args], capture_output=True)


def test_module_run_writes_the_golden_bytes():
    proc = run_qtpme("validate", "--rates", str(DATA / "rates_126.json"))
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (DATA / "golden" / "validate.json").read_bytes()


def test_module_run_exit_codes(tmp_path):
    proc = run_qtpme("validate", "--rates", str(tmp_path / "missing.json"))
    assert proc.returncode == 1 and b'"error": "ValidationError"' in proc.stderr
    reducible = tmp_path / "reducible.json"
    reducible.write_text('{"rates": [[0,1,0,0],[1,0,0,0],[0,0,0,1],[0,0,1,0]]}')
    proc = run_qtpme("structure", "--rates", str(reducible))
    assert proc.returncode == 2 and b'"error": "NonUniqueStationary"' in proc.stderr


def test_reader_that_leaves_early_gets_exit_zero():
    proc = subprocess.Popen([sys.executable, "-m", "qtpme", "sweep", "--rates",
                             str(DATA / "rates_cyclic.json"), "--vary", "a:0:5:300",
                             "--vary", "e:0:5:300"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(10)
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert (proc.wait(timeout=60), head, stderr) == (0, b"a,e,class,", b"")


def test_stdout_closed_before_the_final_flush_gets_exit_zero():
    # validate's few bytes stay buffered until the writer flushes after its last chunk
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "qtpme", "validate", "--rates",
                               str(DATA / "rates_cyclic.json")],
                              stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_profiler_still_reports():
    proc = run_qtpme("validate", "--rates", str(DATA / "rates_cyclic.json"),
                     prefix=("-m", "cProfile"))
    assert proc.returncode == 0, proc.stderr
    assert b"function calls" in proc.stdout


# runs the module as ``python -m qtpme`` does, after registering an atexit hook
ATEXIT_CODE = (
    "import atexit, runpy, sys\n"
    "{setup}\n"
    "atexit.register(lambda: sys.stderr.write('atexit ran\\n'))\n"
    f"sys.argv = ['qtpme', 'validate', '--rates', {str(DATA / 'rates_cyclic.json')!r}]\n"
    "runpy.run_module('qtpme', run_name='__main__', alter_sys=True)\n"
)


@pytest.mark.parametrize("setup, teardown", [
    ("", False),
    ("sys.settrace(lambda *args: None)", True),
], ids=["plain", "traced"])
def test_process_ends_without_teardown_unless_traced(setup, teardown):
    proc = subprocess.run([sys.executable, "-c", ATEXIT_CODE.format(setup=setup)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith('{"n": 3')
    assert (proc.stderr == "atexit ran\n") is teardown, proc.stderr
