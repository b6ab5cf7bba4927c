"""Wall-clock bound for the regression tests on inputs that once ran for minutes."""

from __future__ import annotations

import signal
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def deadline(seconds: float) -> Iterator[None]:
    """Raise TimeoutError in the block once it has run for ``seconds`` of wall time (POSIX)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
