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
"""

import os

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(v in os.environ for v in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

__version__ = "0.1.0"
