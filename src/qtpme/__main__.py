"""Entry point of ``python -m qtpme`` and of the installed ``qtpme`` command."""

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


if __name__ == "__main__":
    sys.exit(main())
