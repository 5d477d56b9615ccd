"""Times in reference-speed seconds, for measuring on a shared host.

On a small shared virtual machine the effective speed of a core drifts by up
to 2x within seconds, and its cores drift independently, far beyond any
bound a regression check could use.  ``Clock`` therefore times a short fixed
interpreter kernel, which belongs to the benchmark and never changes with
the program, before and after each measured call and, from a SIGALRM
handler, every ``interval`` seconds during it.  Each kernel run gives the
speed factor ``REFERENCE_S / kernel time``; a call's reference-speed time is
its raw time times the mean factor over those samples, which is the time it
would take on a machine that runs the kernel in ``REFERENCE_S``.  The time
the handler itself takes is subtracted from the call.  Raw times are kept.
"""

from __future__ import annotations

import signal
import time

# kernel duration that defines the reference speed: the fast state of a
# 2-vCPU Intel Xeon VM
REFERENCE_S = 0.004
INTERVAL_S = 0.2


def _kernel():
    # float arithmetic, calls, small lists and dict traffic, roughly the mix
    # of the package's pure-Python jet code
    acc = 0.0
    table = {}
    for i in range(6000):
        x = i * 1e-3
        coeffs = [x, 0.5 * x, x * x]
        acc += sum(c * c for c in coeffs) / (1.0 + x)
        table[i & 511] = acc
    return acc


def _factor():
    t0 = time.perf_counter()
    _kernel()
    return REFERENCE_S / (time.perf_counter() - t0)


class Clock:
    """Measures calls in raw and reference-speed seconds (main thread only)."""

    def __init__(self, interval=INTERVAL_S):
        self._factors = []
        self._stolen = 0.0
        _kernel()  # grow the heap before the first timed kernel
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._factors.append(_factor())
        self._stolen += time.perf_counter() - t0

    def _probe(self):
        # a tick landing inside the probe would inflate its kernel time
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return _factor()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def close(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def time(self, fn, *args):
        """(result, raw s, reference-speed s) of fn(*args)."""
        before = self._probe()
        n0, stolen0 = len(self._factors), self._stolen
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            raw = time.perf_counter() - t0 - (self._stolen - stolen0)
        factors = [before, *self._factors[n0:], self._probe()]
        return result, raw, raw * sum(factors) / len(factors)
