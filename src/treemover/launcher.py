"""Entry point of the `tmd` console script, run before numpy is imported.

The `tmd` process runs BLAS single-threaded. Its child transports are
matrices of at most a node's degree, where BLAS threads never help, and an
idle OpenBLAS pool spins on a core after it loads; `--threads` is the
process's parallelism. A pool reads `OPENBLAS_NUM_THREADS` once, when it
loads, so the variable must be set before numpy, whose pool is the one a
`tmd` process loads first. This module imports only the standard library;
`python -m treemover.cli` calls `single_threaded_blas` before its own
imports.
"""

import os
import sys


def single_threaded_blas():
    """Default `OPENBLAS_NUM_THREADS` to 1, unless the user set it."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def entrypoint():
    """`tmd`: run the command line with single-threaded BLAS."""
    single_threaded_blas()
    from .cli import main

    sys.exit(main())
