"""Entry points of a `tmd` process: run before numpy is imported, and end it.

The `tmd` process runs BLAS single-threaded. Its child transports are
matrices of at most a node's degree, where BLAS threads never help, and an
idle OpenBLAS pool spins on a core after it loads; `--threads` is the
process's parallelism. A pool reads `OPENBLAS_NUM_THREADS` once, when it
loads, so the variable must be set before numpy, whose pool is the one a
`tmd` process loads first. This module imports only the standard library;
`python -m treemover.cli` calls `single_threaded_blas` before its own
imports.

A `tmd` process ends through `exit_frozen`. At shutdown the interpreter
runs full garbage collections over every tracked object, about 20k that
numpy and the package leave behind, and nothing they could free is
needed: each output file is closed before `cli.main` returns. Freezing
those objects first moves them out of the collector's reach: on the
benchmark's seed-7 inputs the time from `main` returning to the process's
exit fell from 23-25 ms to 6 ms for `dist`, `knn` and `cluster`, and from
33 to 9 ms for `shift` at `--threads 2` (then run by a process pool).
Atexit handlers and the flushing of stdout and stderr still run, unlike
with `os._exit`. Only the two entry points freeze; `cli.main` called from
Python keeps a normal collector.
"""

import gc
import os
import sys


def single_threaded_blas():
    """Default `OPENBLAS_NUM_THREADS` to 1, unless the user set it."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def exit_frozen(code):
    """End the process with `code`, leaving its objects to the shutdown
    uncollected: `gc.freeze()`, then `sys.exit(code)`."""
    gc.freeze()
    sys.exit(code)


def entrypoint():
    """`tmd`: run the command line with single-threaded BLAS."""
    single_threaded_blas()
    from .cli import main

    exit_frozen(main())
