"""Core-speed probe for the benchmark's measured child processes.

The host's cores change speed by a quarter or more within seconds, and each
core drifts on its own, so wall and CPU times of identical work spread too
widely to compare two commits. The benchmark puts this directory on
PYTHONPATH of the processes it times and sets PERFBENCH_SPEED_LOG to a
directory; Python then imports this module at start-up. Every 50 ms of the
process's CPU time (SIGPROF), a fixed reference kernel of pure Python and
small numpy operations, the mix the program itself runs, is timed between
two bytecodes of the program, on the core the program is on. Each sample
is appended as "<perf_counter start> <seconds>" to <dir>/<pid>.txt. Forked
workers re-arm the timer and write their own file. The probe costs about
3% of the CPU time; it imports nothing from treemover.

Without PERFBENCH_SPEED_LOG this module does nothing.
"""

import os

_DIR = os.environ.get("PERFBENCH_SPEED_LOG")

if _DIR:
    import atexit
    import signal
    import time

    import numpy as np

    INTERVAL_S = 0.05
    _out = {"pid": None, "fd": None}

    def kernel():
        s = 0
        for i in range(8000):
            s += i * i
        a = np.arange(16.0).reshape(4, 4)
        for _ in range(160):
            a = (a + 1.0) * 0.5
            a.sum()
        return s

    def _sample(signum, frame):
        pid = os.getpid()
        if _out["pid"] != pid:
            _out["pid"] = pid
            _out["fd"] = os.open(os.path.join(_DIR, f"{pid}.txt"),
                                 os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        t0 = time.perf_counter()
        kernel()
        os.write(_out["fd"], b"%.6f %.9f\n" % (t0, time.perf_counter() - t0))

    def _arm():
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    signal.signal(signal.SIGPROF, _sample)
    # interpreter shutdown restores the default SIGPROF action, which kills
    atexit.register(signal.setitimer, signal.ITIMER_PROF, 0)
    os.register_at_fork(after_in_child=_arm)
    _arm()
