"""vfsynth: vertically federated GAN synthesis for tabular data.

Subpackages cover the dense-network primitives (:mod:`vfsynth.nn`), dataset
encoding and partitioning (:mod:`vfsynth.data`), the multi-party training
protocol (:mod:`vfsynth.fedgan`), the Gaussian mechanism and its RDP
accountant (:mod:`vfsynth.dp`), synthetic-data quality metrics
(:mod:`vfsynth.metrics`), leave-one-out membership-inference auditing
(:mod:`vfsynth.audit`), and the command-line front end (:mod:`vfsynth.cli`).

Parallelism is process-level only (the audit's ``VFSYNTH_THREADS`` worker
processes): on products this small, BLAS threads spin more than they compute
and oversubscribe the cores. Unless one of the BLAS thread variables is set,
they are set to 1 here, before numpy loads; a program that imports numpy
first keeps its own default. The thread count changes no output
(``tests/test_blas_threads.py`` checks a training run under 1 and 2).

Under glibc, arrays from 128 KiB up are by default each given a fresh
``mmap``, zero-filled and faulted in page by page, and the per-epoch
temporaries here (a 1,599 x 64 float64 pre-activation is 800 KB) are
allocated and freed every epoch. So glibc is told once, here, to serve blocks
below 4 MiB from the heap and to trim the heap only past 16 MiB of free
space. Larger blocks stay mmapped and go back to the OS when freed. A user
who sets ``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TRIM_THRESHOLD_`` or a
``glibc.malloc.*`` tunable in ``GLIBC_TUNABLES`` keeps glibc's behaviour as
set. Where arrays live changes no output (``tests/test_malloc.py``).
"""

import os

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(v in os.environ for v in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return False


_MALLOC_VARS = {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"}
if _glibc() and not (_MALLOC_VARS & os.environ.keys()
                     or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
    import ctypes

    _libc = ctypes.CDLL(None)
    _libc.mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    _libc.mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD

__version__ = "0.1.0"
