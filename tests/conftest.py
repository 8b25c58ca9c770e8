"""Shared test settings.

Property tests run under one hypothesis profile: a fixed example sequence
(``derandomize``), no per-example deadline (wall time on a loaded host says
nothing about correctness) and a capped example count, so tier-1 stays
deterministic and fast.  No example database is written.

``fail_write`` simulates a disk that fills part-way through a file write.

BLAS/OpenMP pools are pinned to one thread (the variables the benchmark pins)
before anything imports numpy: on a small host, thread start-up otherwise
makes a dense oracle mat-vec take milliseconds instead of microseconds.
"""

import errno
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

settings.register_profile("gfdm", derandomize=True, deadline=None, max_examples=25, database=None)
settings.load_profile("gfdm")


@pytest.fixture
def fail_write(monkeypatch):
    """``fail_write(prefix)`` makes ``os.write`` write at most ``prefix`` bytes of its first call
    and raise ``ENOSPC`` on the next; ``monkeypatch.undo()`` restores it."""
    real = os.write

    def install(prefix):
        calls = []

        def write(fd, data):
            calls.append(fd)
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real(fd, bytes(data[:prefix]))
        monkeypatch.setattr(os, "write", write)
    return install
