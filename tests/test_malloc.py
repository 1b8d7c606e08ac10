"""The allocator default that importing ``vfsynth`` sets under glibc: the
per-epoch temporaries stay on the heap instead of each being a fresh mmap,
and a user's own ``MALLOC_*`` setting is left alone. Checked in fresh
interpreters, since the setting is made once per process."""

import platform

import pytest

from test_blas_threads import run_python, training_bytes

# Minor page faults per ``Trainer._quality_fd`` call on the shipped wine
# config, after one warm-up epoch. With every 1,599 x 64 pre-activation a
# fresh mmap it is about 1,500 per call (1,513 measured on glibc 2.36); kept
# on the heap it is near 0.
PROBE = """
import resource, vfsynth.data as D, vfsynth.fedgan as fg
from vfsynth.config import load_config
from vfsynth.rng import RngStream
cfg = load_config("configs/winequality-red.yaml")
ds = D.load_csv(cfg.dataset_path, cfg.schema)
t = fg.Trainer(cfg.variant, D.encode(ds, D.fit_encoder(ds)), cfg.split, cfg.gan,
               None, RngStream(cfg.seed, "train"))
t.run_epoch()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for epoch in range(2, 6):
    t._quality_fd(epoch)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 4)
"""

glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="the allocator default applies under glibc only")


def fd_faults(preset):
    return float(run_python(["-c", PROBE], preset).stdout)


@glibc_only
def test_fd_temporaries_do_not_fault():
    assert fd_faults({}) < 150


@glibc_only
def test_user_mmap_threshold_left_as_set():
    assert fd_faults({"MALLOC_MMAP_THRESHOLD_": "131072"}) > 750


def test_training_bytes_do_not_depend_on_the_allocator(tmp_path):
    default, mmapped = training_bytes(tmp_path, [{}, {"MALLOC_MMAP_THRESHOLD_": "131072"}])
    assert default == mmapped
