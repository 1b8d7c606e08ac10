"""Pinned output digests: the byte-identity claim checked where it holds.

Three runs, each in a fresh interpreter: a 6-epoch train of the shipped
wine config, a 2-epoch four-party DP train (batch 256, epsilon 10,
delta 5e-4, clip 1) and a 1-epoch ASSD + ASIF audit of the first 200 wine
rows (6 shadows, ``select: nn``). The sha256 of every entry of each run's
manifest inventory must equal the committed table.

The bytes depend on the numpy build, the OpenBLAS build and the kernel
OpenBLAS picks when it loads, so the table is keyed by all three: the numpy
version, the OpenBLAS version in ``np.__config__.CONFIG`` and the kernel
that ``OPENBLAS_VERBOSE=2`` prints as ``Core: <name>`` (``OPENBLAS_CORETYPE``
pins it). A key that is not in the table is a skip whose reason names the
key, never a pass.

A declared behaviour change edits the table. ``python tests/test_golden.py``
prints this machine's key and the digests of the three runs as a table row.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ROOT / "configs" / "winequality-red.yaml"

# (numpy, OpenBLAS, kernel) -> run -> inventory entry -> sha256
GOLDEN = {
    ('2.4.6', '0.3.31.188.0', 'SkylakeX'): {
        'train': {
            'checkpoints/best.ckpt':
                '6f2d5fb102197b748059549821f2bfce855ede6d1e9d7b539c844fe0eb670b83',
            'checkpoints/final.ckpt':
                '8ccc79f668deb89633badb800cd84bacfd3f9f6ab9ea81f5f673c367d97761a8',
            'config.yaml':
                '525ff68157cca6f9340769718f67487df86d0d5eff1a697f5b8a6773956f6124',
            'encoder.yaml':
                'bfdaf3fe3f221fe37e05701c4ce63e337b480d8c923d17120bf8da7576b0080d',
            'logs/train_log.csv':
                '41e44b27dfc0ea1ba4bf5977e143332de2f3ee1027ac5e9a6887776e2dee6dca',
        },
        'train_dp4': {
            'checkpoints/best.ckpt':
                '560d1be9a920f65a42de9e906df73fa85253b8f5a9abc0a7aaf7c71c7c1510d9',
            'checkpoints/final.ckpt':
                '9b530f6ad4bf462c58c82bbc7b029d0dd01da0712d85383d242b2805f658c081',
            'config.yaml':
                'b4369c0d39eceff079ba559c245944d69da751bca8eab669ee1f19765b95d164',
            'encoder.yaml':
                'bfdaf3fe3f221fe37e05701c4ce63e337b480d8c923d17120bf8da7576b0080d',
            'logs/train_log.csv':
                'c9b95c094fade2e108aa36da74448b2ecab3558ff8244791bf6c78ff2b7e7f59',
        },
        'audit': {
            'audit_report.yaml':
                'c2fb20a56ffff06a8d6403420d1820aa077d6be3d0c1d3cb4218a1e99e39ca31',
            'features_asif_correlation.csv':
                'be27a54653e4244d0357a2031e3358bd178974b169e615328c6534c3234ae4fb',
            'features_asif_naive.csv':
                '06ef1d27207bce9b0d7da9bd255fa37a405e6866fa31ab243b11257e1f714751',
            'features_assd_correlation.csv':
                '3527a5d2509b6b7f710bb8c800d5a8a0fb055e9d26632233c0ea8c1c550979b9',
            'features_assd_naive.csv':
                '5de1e01b45a9a51f117de1868e423f76ce7cba9649ae23e8ddde6421a47e4691',
        },
    },
    ('2.4.6', '0.3.31.188.0', 'Haswell'): {
        'train': {
            'checkpoints/best.ckpt':
                '73d4b039d50ce6aef5ffd2a8609dcb45a922891e94e36a70dd34000341173881',
            'checkpoints/final.ckpt':
                '24ba496729570f4046a3ea2000eb1424cec1def8ff8221f0fab29e8fed0dd55b',
            'config.yaml':
                '525ff68157cca6f9340769718f67487df86d0d5eff1a697f5b8a6773956f6124',
            'encoder.yaml':
                'bfdaf3fe3f221fe37e05701c4ce63e337b480d8c923d17120bf8da7576b0080d',
            'logs/train_log.csv':
                'cad05a7035cc3ca7fcfa8c322fea2747f9c3c6fa36a89c5d729665a0242d3339',
        },
        'train_dp4': {
            'checkpoints/best.ckpt':
                'e8be5a5d54b93d08068daf01e32a0f3860d1c5a671eec7c83e5cf12fc65d45c4',
            'checkpoints/final.ckpt':
                '8ee650ad39a2a68a7810294dbfd0fc2933f9edb0a082d884452cc806fdc8ca3c',
            'config.yaml':
                'b4369c0d39eceff079ba559c245944d69da751bca8eab669ee1f19765b95d164',
            'encoder.yaml':
                'bfdaf3fe3f221fe37e05701c4ce63e337b480d8c923d17120bf8da7576b0080d',
            'logs/train_log.csv':
                '1b0a051d75a3756c1c320b9002796ebf56ca81cd703561e84b2d1ae68665b293',
        },
        'audit': {
            'audit_report.yaml':
                'c2fb20a56ffff06a8d6403420d1820aa077d6be3d0c1d3cb4218a1e99e39ca31',
            'features_asif_correlation.csv':
                'ca24e4e0e5266752e6a6f5eaba4105b6905b9bc323669a59c7dbd5c26f6cedf7',
            'features_asif_naive.csv':
                '3d3ca74b25131c6b9185d0aa31d2b89ca5b6027a520f8d3113aa2486c596893b',
            'features_assd_correlation.csv':
                'cc0c9630ed3040f5aec1d9e03b15563c7e2d77039ebaff6d76287cfc65bf3921',
            'features_assd_naive.csv':
                'f7f83795c99fcd63973b615271cf7446d852e9b6581bc9ead443eb0d2c2c3512',
        },
    },
}


def _env():
    env = dict(os.environ, VFSYNTH_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    return env


def blas_key():
    """(numpy version, OpenBLAS version, kernel); a part that cannot be
    read is None."""
    deps = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
    blas = deps.get("blas", {})
    version = blas.get("version") if "openblas" in str(blas.get("name", "")) else None
    probe = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                           text=True, env={**_env(), "OPENBLAS_VERBOSE": "2"}, timeout=60)
    core = re.search(r"^Core: (\S+)", probe.stderr + probe.stdout, re.MULTILINE)
    return np.__version__, version, core and core.group(1)


def _config(work: Path, name: str) -> dict:
    """The config document of the pinned run ``name``."""
    doc = yaml.safe_load(SHIPPED.read_text())
    if name == "train":
        doc["gan"]["epochs"] = 6
    elif name == "train_dp4":
        doc["gan"].update(epochs=2, batch_size=256)
        doc["split"] = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
        doc["dp"] = {"epsilon": 10.0, "delta": 5.0e-4, "clip": 1.0}
    else:
        wine = (ROOT / "data" / "winequality-red.csv").read_text().splitlines(keepends=True)
        (work / "wine200.csv").write_text("".join(wine[:201]))
        # an audit writes no config, so this path leaves no trace in its bytes
        doc["dataset"]["path"] = str(work / "wine200.csv")
        doc["gan"]["epochs"] = 1
        doc["audit"] = {"modes": ["assd", "asif"], "shadows": 6, "select": "nn"}
    return doc


def run_inventory(work: Path, name: str) -> dict:
    """Run ``name`` in a fresh interpreter from the repository root, so the
    shipped relative dataset path, copied into a train's config, stays as is;
    return its manifest's inventory."""
    cfg, out = work / f"{name}.yaml", work / name
    cfg.write_text(yaml.safe_dump(_config(work, name), sort_keys=False))
    command = "audit" if name == "audit" else "train"
    proc = subprocess.run([sys.executable, "-m", "vfsynth.cli", command, "--config", str(cfg),
                           "--out", str(out)], cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"vfsynth {command} exited {proc.returncode}: {proc.stderr}")
    return yaml.safe_load((out / "manifest.yaml").read_text())["inventory"]


@pytest.fixture(scope="module")
def pinned():
    key = blas_key()
    if key not in GOLDEN:
        pytest.skip(f"no pinned digests for (numpy, OpenBLAS, kernel) = {key}")
    return GOLDEN[key]


@pytest.mark.parametrize("name", ["train", "train_dp4", "audit"])
def test_inventory_matches_pinned_digests(pinned, tmp_path, name):
    got = run_inventory(tmp_path, name)
    changed = sorted(k for k in got.keys() | pinned[name].keys()
                     if got.get(k) != pinned[name].get(k))
    assert not changed, f"{name}: digests differ for {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        rows = {name: run_inventory(Path(tmp), name) for name in ("train", "train_dp4", "audit")}
    print(f"    {blas_key()!r}: {{")
    for name, inventory in rows.items():
        print(f"        {name!r}: {{")
        for entry, digest in inventory.items():
            print(f"            {entry!r}:\n                {digest!r},")
        print("        },")
    print("    },")
