"""The BLAS thread default that importing ``vfsynth`` sets, checked in fresh
interpreters since it must act before numpy loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")


def run_python(args, preset, cwd=ROOT):
    """Run the interpreter with no BLAS or allocator variable set but ``preset``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS + MALLOC_VARS}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, check=True,
                          capture_output=True, text=True, timeout=300)


PROBE = (
    "import json, os, vfsynth.cli, numpy as np\n"
    "np.ones((512, 512)) @ np.ones((512, 512))  # would start BLAS workers\n"
    "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None\n"
    f"print(json.dumps([{{v: os.environ.get(v) for v in {BLAS_VARS!r}}}, tasks]))\n"
)


def test_import_pins_blas_to_one_thread():
    env, tasks = json.loads(run_python(["-c", PROBE], {}).stdout)
    assert env == dict.fromkeys(BLAS_VARS, "1")
    if tasks is None:
        pytest.skip("no /proc/self/task to count threads")
    assert tasks == 1


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_user_setting_left_as_set(var):
    env, _ = json.loads(run_python(["-c", PROBE], {var: "2"}).stdout)
    assert env == {v: "2" if v == var else None for v in BLAS_VARS}


def training_bytes(tmp_path, presets):
    """The checkpoints and log of a 2-epoch shipped wine run in a fresh
    interpreter under each of ``presets``."""
    doc = yaml.safe_load((ROOT / "configs" / "winequality-red.yaml").read_text())
    doc["dataset"]["path"] = str(ROOT / doc["dataset"]["path"])
    doc["gan"]["epochs"] = 2
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump(doc, sort_keys=False))
    outputs = []
    for i, preset in enumerate(presets):
        run = tmp_path / f"run-{i}"
        run_python(["-m", "vfsynth.cli", "train", "--config", str(cfg), "--out", str(run)],
                   preset, cwd=tmp_path)
        outputs.append([(run / f).read_bytes() for f in (
            "checkpoints/best.ckpt", "checkpoints/final.ckpt", "logs/train_log.csv")])
    return outputs


def test_training_bytes_do_not_depend_on_blas_threads(tmp_path):
    one, two = training_bytes(tmp_path, [{"OPENBLAS_NUM_THREADS": t} for t in ("1", "2")])
    assert one == two
