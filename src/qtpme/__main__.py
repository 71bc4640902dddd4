"""Entry point of ``python -m qtpme`` and of the installed ``qtpme`` command."""

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
    """
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
