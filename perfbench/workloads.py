"""The benchmark's workloads: their inputs, one operation, and its checks.

Input generation runs in the benchmark's parent process and needs only the
standard library and PyYAML. Operations and checks run in a fresh worker
process that imports ``vfsynth`` from ``src/``.

All inputs derive from the workload seed: it is the training and audit seed
and it draws the synthetic table of ``eval-fourway``. The wine CSV and the
shipped config are the fixed base they are made from.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
DATA_CSV = ROOT / "data" / "winequality-red.csv"
BASE_CONFIG = ROOT / "configs" / "winequality-red.yaml"

TRAIN_EPOCHS = 40  # train-vflgan: ~85 ms per epoch on 2 cores
DP4_EPOCHS = 16  # train-vflgan-dp4: ~220 ms per epoch
EVAL_TREES = 2  # trees per forest; 40 forests per four-way evaluation
EVAL_FOLDS = 10
AUDIT_SHADOWS = 8  # per world
AUDIT_EPOCHS = 3  # per shadow training
AUDIT_MODES = ("assd", "asif")
AUDIT_REPEATS = 2  # attack repeats (program default 5)
AUDIT_KINDS = ("naive", "correlation")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" | "eval" | "audit"
    start_span: str | None  # first timed call; None: the operation marks it
    step_span: str  # the repeated step behind step_ms
    step_jobs: int  # units per step span: wall time per unit is reported
    step_targets: tuple  # (target, span name) wrapped in untraced runs
    planned_units: int  # epochs, forest fits and shadow jobs per operation


_EPOCH = (("vfsynth.fedgan:Trainer.run_epoch", "fedgan.run_epoch"),)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-vflgan", kind="train",
            start_span="fedgan.run_epoch", step_span="fedgan.run_epoch", step_jobs=1,
            step_targets=_EPOCH, planned_units=TRAIN_EPOCHS,
        ),
        Workload(
            name="train-vflgan-dp4", kind="train",
            start_span="fedgan.run_epoch", step_span="fedgan.run_epoch", step_jobs=1,
            step_targets=_EPOCH, planned_units=DP4_EPOCHS,
        ),
        Workload(
            name="eval-fourway", kind="eval",
            start_span=None, step_span="forest.fit", step_jobs=1,
            step_targets=(("vfsynth.metrics:train_forest", "forest.fit"),),
            planned_units=4 * EVAL_FOLDS,
        ),
        Workload(
            name="audit-loo", kind="audit",
            start_span="audit.select", step_span="audit.shadows",
            step_jobs=2 * AUDIT_SHADOWS,
            step_targets=(
                ("vfsynth.audit:find_vulnerable_nn", "audit.select"),
                ("vfsynth.audit:train_shadows_assd", "audit.shadows"),
                ("vfsynth.audit:train_shadows_asif", "audit.shadows"),
                ("vfsynth.audit:train_forest", "forest.fit"),
            ),
            planned_units=len(AUDIT_MODES) * (2 * AUDIT_SHADOWS + len(AUDIT_KINDS) * AUDIT_REPEATS),
        ),
    )
}


# ---------------------------------------------------------------------------
# inputs (parent process)
# ---------------------------------------------------------------------------

def _synthetic_table(seed: int, out: Path) -> None:
    """Bootstrap the wine rows, jitter the numerics by a tenth of their
    column's standard deviation and move a tenth of the quality labels to
    another category."""
    rng = random.Random(seed)
    with open(DATA_CSV, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = list(reader)
    numeric = [[float(r[j]) for r in rows] for j in range(len(header) - 1)]
    stds = [statistics.pstdev(col) for col in numeric]
    labels = sorted({r[-1] for r in rows}, key=int)
    with open(out, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for _ in rows:
            src = rows[rng.randrange(len(rows))]
            cells = [repr(float(v) + 0.1 * s * rng.gauss(0.0, 1.0))
                     for v, s in zip(src[:-1], stds)]
            label = src[-1]
            if rng.random() < 0.1:
                label = rng.choice([c for c in labels if c != label])
            w.writerow(cells + [label])


def make_inputs(wl: Workload, seed: int, out: Path) -> None:
    """Write ``config.yaml`` into ``out``, plus ``synth.csv`` and
    ``params.json`` for the evaluation."""
    out.mkdir(parents=True)
    with open(BASE_CONFIG, encoding="utf-8") as f:
        doc = yaml.safe_load(f)
    doc["dataset"]["path"] = str(DATA_CSV)
    doc["seed"] = seed
    doc["output_dir"] = str(out / "default-run")
    gan = doc["gan"]
    if wl.name == "train-vflgan":
        gan["epochs"] = TRAIN_EPOCHS
    elif wl.name == "train-vflgan-dp4":
        doc["split"] = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
        gan["epochs"] = DP4_EPOCHS
        gan["batch_size"] = 256
        doc["dp"] = {"epsilon": 10.0, "delta": 5.0e-4, "clip": 1.0}
    elif wl.name == "audit-loo":
        gan["epochs"] = AUDIT_EPOCHS
        doc["audit"] = {
            "modes": list(AUDIT_MODES),
            "shadows": AUDIT_SHADOWS,
            "repeats": AUDIT_REPEATS,
            "feature_kinds": list(AUDIT_KINDS),
            "select": "nn",
        }
    elif wl.name == "eval-fourway":
        _synthetic_table(seed, out / "synth.csv")
        params = {"seed": seed, "trees": EVAL_TREES, "folds": EVAL_FOLDS}
        (out / "params.json").write_text(json.dumps(params), encoding="utf-8")
    with open(out / "config.yaml", "w", encoding="utf-8") as f:
        yaml.safe_dump(doc, f, sort_keys=True)


# ---------------------------------------------------------------------------
# one operation (worker process)
# ---------------------------------------------------------------------------

def run_op(wl: Workload, inputs: Path, out: Path, mark_start):
    """Run one operation of the workload; return what the checks need.

    ``mark_start`` is called when the timed section begins. For the CLI
    workloads the worker's tracer calls it from the workload's start span.
    """
    from vfsynth import cli

    if wl.kind == "eval":
        return _eval_op(inputs, mark_start)
    command = "train" if wl.kind == "train" else "audit"
    rc = cli.main([command, "--config", str(inputs / "config.yaml"), "--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"vfsynth {command} exited with {rc}")
    return None


def _eval_op(inputs: Path, mark_start):
    from vfsynth import data as D
    from vfsynth import metrics as M
    from vfsynth.config import load_config
    from vfsynth.rng import RngStream

    params = json.loads((inputs / "params.json").read_text(encoding="utf-8"))
    cfg = load_config(inputs / "config.yaml")
    real = D.load_csv(cfg.dataset_path, cfg.schema)
    synth = D.load_csv(inputs / "synth.csv", cfg.schema)
    mark_start()
    enc = D.fit_encoder(real)
    fd = M.frechet_distance(
        M.dataset_stats(D.encode(real, enc)),
        M.dataset_stats(D.encode(synth, enc)),
    )
    report = M.utility_fourway(
        real, synth, cfg.schema.target, RngStream(params["seed"], "eval"),
        trees=params["trees"], folds=params["folds"],
    )
    return {"fd": fd, "report": report, "real": real, "synth": synth, "enc": enc}


# ---------------------------------------------------------------------------
# output checks and fingerprints (worker process)
# ---------------------------------------------------------------------------

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def oracle_fd(a, b) -> float:
    """Frechet distance of two row matrices through LAPACK eigensolvers,
    independent of the program's own eigensolver."""
    import numpy as np

    def moments(m):
        mu = m.mean(axis=0)
        c = m - mu
        return mu, c.T @ c / m.shape[0]

    mu1, c1 = moments(a)
    mu2, c2 = moments(b)
    w, v = np.linalg.eigh((c1 + c1.T) / 2)
    root = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
    inner = root @ ((c2 + c2.T) / 2) @ root
    cross = np.sqrt(np.maximum(np.linalg.eigvalsh((inner + inner.T) / 2), 0.0)).sum()
    d = mu1 - mu2
    return max(float(d @ d + np.trace(c1) + np.trace(c2) - 2.0 * cross), 0.0)


def _close(a: float, b: float, rel: float = 1e-6) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(1.0, abs(b))


class Checks:
    def __init__(self):
        self.items: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok, detail: str = "") -> None:
        self.items.append((name, bool(ok), detail))

    def guarded(self, name: str, fn) -> None:
        """Record fn()'s truth; an exception fails the check with its text."""
        try:
            self.add(name, fn())
        except Exception as exc:  # a broken output must fail its check, not the run
            self.add(name, False, f"{type(exc).__name__}: {exc}")


def check_op(wl: Workload, inputs: Path, out: Path, result, observed: dict):
    """Return (fingerprint, checks) for one finished operation.

    ``observed`` maps span names to the calls the worker's tracer saw.
    """
    checks = Checks()
    if wl.kind == "train":
        fingerprint = _check_train(inputs, out, checks, observed)
    elif wl.kind == "eval":
        fingerprint = _check_eval(result, checks, observed)
    else:
        fingerprint = _check_audit(inputs, out, checks, observed)
    return fingerprint, checks.items


def _check_train(inputs, out, checks, observed):
    import numpy as np
    from vfsynth import data as D
    from vfsynth import fedgan as fg
    from vfsynth.checkpoint import read_checkpoint
    from vfsynth.config import load_config
    from vfsynth.rng import RngStream

    cfg = load_config(inputs / "config.yaml")
    manifest = yaml.safe_load((out / "manifest.yaml").read_text(encoding="utf-8"))
    with open(out / "logs" / "train_log.csv", newline="", encoding="utf-8") as f:
        log = list(csv.DictReader(f))
    best_fd = float(manifest.get("best_fd", math.nan))
    best_epoch = int(manifest.get("best_epoch", -1))
    files = {
        "best.ckpt": out / "checkpoints" / "best.ckpt",
        "final.ckpt": out / "checkpoints" / "final.ckpt",
        "train_log.csv": out / "logs" / "train_log.csv",
    }
    fingerprint = {
        "best_fd": repr(best_fd),
        "best_epoch": best_epoch,
        **{name: sha256(p) for name, p in files.items()},
    }
    epochs = cfg.gan.epochs
    seen = observed.get("fedgan.run_epoch", 0)
    checks.add("epochs.observed", seen == epochs, f"{seen} of {epochs}")
    checks.add("manifest.completed", manifest.get("status") == "completed")
    checks.add("log.epochs", [int(r["epoch"]) for r in log] == list(range(1, epochs + 1)))
    losses = [float(r[k]) for r in log for k in ("loss_d1", "loss_d2", "loss_ds", "loss_g")]
    checks.add("log.losses_finite", all(math.isfinite(v) for v in losses))
    fds = [(float(r["fd"]), int(r["epoch"])) for r in log if math.isfinite(float(r["fd"]))]
    checks.add("best.in_range", math.isfinite(best_fd) and best_fd >= 0
               and 1 <= best_epoch <= epochs, f"{best_fd} @ {best_epoch}")
    checks.add("best.matches_log", bool(fds) and min(fds) == (best_fd, best_epoch))

    def checkpoints_ok():
        parties = len(cfg.split.parties)
        for path in (files["best.ckpt"], files["final.ckpt"]):
            models = read_checkpoint(path)
            if sorted(models) != [f"g{i}" for i in range(parties)]:
                return False
            for m in models.values():
                for layer in m.layers:
                    if not (np.isfinite(layer.w).all() and np.isfinite(layer.b).all()):
                        return False
        return True

    def best_fd_reproduces():
        # regenerate the best epoch's quality sample from best.ckpt and
        # recompute its FD with LAPACK instead of the program's eigensolver
        ds = D.load_csv(cfg.dataset_path, cfg.schema)
        enc = D.fit_encoder(ds)
        parts = fg.partition(D.encode(ds, enc), cfg.split)
        models = read_checkpoint(files["best.ckpt"])
        gens = [models[f"g{i}"] for i in range(len(cfg.split.parties))]
        heads = [fg.OutputHead(b, cfg.gan.gumbel_temperature, cfg.gan.numeric_activation)
                 for b in fg.party_blocks(enc, cfg.split)]
        n = min(ds.n_rows, cfg.gan.fd_sample_cap)
        sample = fg.generate_from(
            gens, heads, enc, cfg.gan.latent_dim, n,
            RngStream(cfg.seed, "train").child("eval", best_epoch),
        )
        return _close(oracle_fd(np.hstack(parts.views), sample.matrix), best_fd)

    checks.guarded("checkpoints.readable_finite", checkpoints_ok)
    checks.guarded("best_fd.oracle", best_fd_reproduces)
    return fingerprint


def _check_eval(result, checks, observed):
    from vfsynth import data as D

    report, fd = result["report"], result["fd"]
    rows = report.as_rows()
    fingerprint = {
        "fd": repr(float(fd)),
        "total_difference": repr(float(report.total_difference)),
        **{name: [repr(float(acc)), repr(float(f1))] for name, acc, f1 in rows},
    }
    seen = observed.get("forest.fit", 0)
    checks.add("forests.observed", seen == 4 * EVAL_FOLDS, f"{seen} of {4 * EVAL_FOLDS}")
    checks.add("regimes.present", [r[0] for r in rows] == ["TRTR", "TSTS", "TRTS", "TSTR"])
    checks.add("regimes.in_range", all(
        math.isfinite(v) and 0.0 <= v <= 1.0 for _, acc, f1 in rows for v in (acc, f1)
    ))
    trtr = rows[0]
    expected = sum(abs(acc - trtr[1]) + abs(f1 - trtr[2]) for _, acc, f1 in rows[1:])
    checks.add("total_difference.sum", abs(expected - report.total_difference) <= 1e-12)
    enc = result["enc"]
    checks.guarded("fd.oracle", lambda: _close(oracle_fd(
        D.encode(result["real"], enc).matrix, D.encode(result["synth"], enc).matrix
    ), float(fd)))
    return fingerprint


def _nn_oracle(ds):
    """Per-row nearest-neighbour distance under the mixed cosine metric:
    ``1 - w_cat cos(one-hot) - w_cont cos(raw numerics)``."""
    import numpy as np

    cat, cont = [], []
    for attr, col in zip(ds.schema.attributes, ds.columns):
        if attr.kind == "categorical":
            cat.append(np.eye(len(attr.categories))[col])
        else:
            cont.append(col.astype(np.float64)[:, None])
    blocks = [(np.hstack(b), len(b)) for b in (cat, cont) if b]
    total = len(cat) + len(cont)
    dist = np.ones((ds.n_rows, ds.n_rows))
    for block, count in blocks:
        unit = block / np.linalg.norm(block, axis=1)[:, None]
        dist -= (count / total) * (unit @ unit.T)
    np.fill_diagonal(dist, np.inf)
    return dist.min(axis=1)


def _check_audit(inputs, out, checks, observed):
    import numpy as np
    from vfsynth import data as D
    from vfsynth.config import load_config

    cfg = load_config(inputs / "config.yaml")
    report = yaml.safe_load((out / "audit_report.yaml").read_text(encoding="utf-8"))
    results = report.get("results", {})
    target = int(report.get("target_index", -1))
    feature_files = {f"features_{m}_{k}.csv": out / f"features_{m}_{k}.csv"
                     for m in AUDIT_MODES for k in AUDIT_KINDS}
    fingerprint = {
        "target_index": target,
        "auc": {m: {k: [repr(v["auc_mean"]), repr(v["auc_std"])]
                    for k, v in sorted(kinds.items())}
                for m, kinds in sorted(results.items())},
        **{name: sha256(p) for name, p in feature_files.items() if p.exists()},
    }
    attack_fits = len(AUDIT_MODES) * len(AUDIT_KINDS) * AUDIT_REPEATS
    seen = observed.get("forest.fit", 0)
    checks.add("attack_forests.observed", seen == attack_fits, f"{seen} of {attack_fits}")
    aucs = [v for m in AUDIT_MODES for k in AUDIT_KINDS
            for v in (results.get(m, {}).get(k, {}).get("auc_mean", math.nan),
                      results.get(m, {}).get(k, {}).get("auc_std", math.nan))]
    checks.add("auc.present_in_range", all(
        isinstance(v, float) and math.isfinite(v) and 0.0 <= v <= 1.0 for v in aucs
    ))

    def target_is_farthest():
        dist = _nn_oracle(D.load_csv(cfg.dataset_path, cfg.schema))
        return 0 <= target < len(dist) and dist[target] >= dist.max() - 1e-9

    def features_ok():
        want = [0] * AUDIT_SHADOWS + [1] * AUDIT_SHADOWS
        for path in feature_files.values():
            with open(path, newline="", encoding="utf-8") as f:
                rows = list(csv.reader(f))[1:]
            values = np.array([[float(c) for c in r[1:]] for r in rows])
            if [int(r[0]) for r in rows] != want or not np.isfinite(values).all():
                return False
        return True

    checks.guarded("target.oracle", target_is_farthest)
    checks.guarded("features.shadow_rows_finite", features_ok)
    return fingerprint
