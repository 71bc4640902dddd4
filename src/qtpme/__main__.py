"""Entry point of ``python -m qtpme`` and of the installed ``qtpme`` command.

Both run :func:`run`, which runs :func:`main` and then ends the process
without the interpreter's teardown.  :func:`main` returns the exit code and
is what tests and embedding programs call.
"""

import gc
import os
import sys


def main(argv=None) -> int:
    """Run the command line on ``argv`` (default ``sys.argv[1:]``).

    Each command is one short process on a matrix of a few dozen states.
    Loading numpy starts OpenBLAS worker threads that by default busy-wait
    about 2**28 cycles (some 0.1 s) for work before they sleep, which costs
    CPU and gains nothing here.  A thread timeout of 2**4 cycles makes them
    sleep at once and keeps threaded BLAS for the calls that use it.
    OpenBLAS reads the variable when it loads, so it is set before the
    command line imports numpy, and only when the caller has not set it.

    Import leaves some 33 000 long-lived objects (``site``, numpy, argparse,
    qtpme) that the cyclic collector would walk again in every generation-1
    and -2 collection of the command and once more at interpreter exit:
    about 40 ms of CPU per command, four times the work of a small one.
    So the collector is off while the command line imports, the heap it
    leaves is frozen into the permanent generation, and the collector is on
    again, for everything the command allocates, before the command runs.
    """
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
    gc.disable()
    from .cli import main as cli_main

    gc.freeze()
    gc.enable()
    return cli_main(argv)


def _observed() -> bool:
    """Whether a tracer, a profiler or a ``sys.monitoring`` tool (Python
    3.12+) is attached: such a tool writes its report at interpreter exit."""
    monitoring = getattr(sys, "monitoring", None)
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or (monitoring is not None
                and any(monitoring.get_tool(i) is not None for i in range(6))))


def run() -> None:
    """Run the command line and end the process.

    Once the output is flushed a command has nothing left to do, but the
    interpreter's teardown would still finalise every module and free the
    import-time heap of numpy, argparse and qtpme object by object: on a
    2-vCPU machine, 7-8 ms from the end of the command to the process being
    reaped, against about 2 ms for ``os._exit``.  So the process ends with
    ``os._exit``, and ``atexit`` hooks (none of this program's) do not run.
    The command flushes stdout and closes its files itself (see
    :func:`qtpme.cli.main`); stderr is flushed here.  Under a tracer or
    profiler (``python -m cProfile -m qtpme ...``, coverage) the process
    exits normally, so the tool can write its report.
    """
    code = main()
    sys.stderr.flush()
    if _observed():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
