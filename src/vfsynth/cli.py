"""Command-line front end and run-directory persistence.

Commands: ``train``, ``generate``, ``eval``, ``audit``, and the accountant
subcommands ``accountant report`` / ``accountant calibrate``. ``train``,
``eval`` and ``audit`` write a fresh directory; ``generate`` writes a new file
and never overwrites one; ``accountant`` prints to stdout, plus an optional
new curve file. No command mutates its inputs, and each exits 0 on success or 1
with one diagnostic line on stderr, a malformed command line included. Given
the same config and seed, every emitted checkpoint, log, and report is
byte-identical across reruns; manifests additionally carry wall-clock
timestamps and content digests of every file in the run directory.

``train``, ``eval`` and ``audit`` share one run-directory lifecycle,
``_run_dir``: the manifest reads ``running`` on entry and ``completed``, or
``failed`` with the error, on exit (an interrupt included), and is replaced
atomically. ``generate`` reads a run only through ``_completed_run``.
The library checks the inputs; this module only its flags, outputs and manifests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import shutil
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from . import audit as au
from . import data as D
from . import dp as dpmod
from . import fedgan as fg
from . import metrics as M
from .checkpoint import read_checkpoint, write_checkpoint
from .config import load_config, mechanism
from .rng import RngStream, check_seed

__all__ = ["main"]


class CliError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# run-directory plumbing
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _fresh_dir(path: str) -> Path:
    out = Path(path)
    if out.exists() and any(out.iterdir()):
        raise CliError(f"output directory {out} exists and is not empty")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_yaml(path: Path, body: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        yaml.safe_dump(body, f, sort_keys=True)


def _inventory(run_dir: Path) -> dict[str, str]:
    out = {}
    for p in sorted(run_dir.rglob("*")):
        if p.is_file() and p.name not in ("manifest.yaml", "manifest.yaml.tmp"):
            out[str(p.relative_to(run_dir))] = _sha256(p)
    return out


def _write_manifest(run_dir: Path, body: dict) -> None:
    # the manifest vouches for every other file, so it alone needs the rename
    tmp = run_dir / "manifest.yaml.tmp"
    _write_yaml(tmp, {**body, "manifest_version": 1, "package_version": __version__,
                      "inventory": _inventory(run_dir)})
    os.replace(tmp, run_dir / "manifest.yaml")


@contextlib.contextmanager
def _run_dir(path: str, record: dict):
    """Make the fresh directory ``path`` and yield it, its manifest reading
    ``running`` until the body ends: then ``completed`` with ``record`` as the
    body left it, or ``failed`` with the error, which propagates."""
    out = _fresh_dir(path)
    record["created_utc"] = _utc_now()
    _write_manifest(out, {**record, "status": "running"})
    try:
        yield out
        record["status"] = "completed"
    except BaseException as exc:  # an interrupt must leave a manifest too
        record.update(status="failed", error=str(exc) or type(exc).__name__)
        raise
    finally:
        record["completed_utc"] = _utc_now()
        _write_manifest(out, record)


def _completed_run(run_dir: Path, *rels: str) -> dict:
    """The manifest of ``run_dir``; refuse the run unless it completed and
    each of ``rels`` still has the digest the manifest recorded."""
    path = run_dir / "manifest.yaml"
    if not path.exists():
        raise CliError(f"{run_dir} has no manifest.yaml")
    try:
        manifest = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError:
        manifest = None
    if not (isinstance(manifest, dict) and isinstance(manifest.get("inventory"), dict)):
        raise CliError(f"{path} is not a run manifest")
    if manifest.get("status") != "completed":
        raise CliError(f"run {run_dir} did not complete (status: {manifest.get('status')})")
    for rel in rels:
        if rel not in manifest["inventory"]:
            raise CliError(f"{rel} is not in the run manifest inventory")
        if _sha256(run_dir / rel) != manifest["inventory"][rel]:
            raise CliError(f"{rel} digest mismatch: file was modified after the run")
    return manifest


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _write_encoder(run_dir: Path, enc: D.Encoder) -> None:
    _write_yaml(run_dir / "encoder.yaml", {
        "mu": [float(v) for v in enc.mu],
        "sigma": [float(v) for v in enc.sigma],
    })


def _read_encoder(run_dir: Path, schema: D.Schema) -> D.Encoder:
    with open(run_dir / "encoder.yaml", "r", encoding="utf-8") as f:
        body = yaml.safe_load(f)
    return D.Encoder(
        schema,
        tuple(float(v) for v in body["mu"]),
        tuple(float(v) for v in body["sigma"]),
    )


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    ds = D.load_csv(cfg.dataset_path, cfg.schema)
    data = D.encode(ds, D.fit_encoder(ds))
    dp_cfg, dp_record = mechanism(cfg, data.n_rows)
    record = {"variant": cfg.variant, "seed": cfg.seed}
    if dp_record is not None:
        record["dp"] = dp_record
    with _run_dir(cfg.output_dir if args.out is None else args.out, record) as run_dir:
        shutil.copyfile(args.config, run_dir / "config.yaml")
        (run_dir / "checkpoints").mkdir()
        (run_dir / "logs").mkdir()
        trainer = fg.train(
            cfg.variant, data, cfg.split, cfg.gan, dp_cfg, RngStream(cfg.seed, "train")
        )
        trainer.log.to_csv(run_dir / "logs" / "train_log.csv")
        for which, best in (("final", False), ("best", True)):
            gens = trainer.generators(best)
            write_checkpoint(run_dir / "checkpoints" / f"{which}.ckpt",
                             {f"g{i}": g for i, g in enumerate(gens)})
        _write_encoder(run_dir, data.encoder)
        record["best_epoch"] = trainer.log.best_epoch
        record["best_fd"] = float(trainer.log.best_fd)
    print(run_dir)
    return 0


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    check_seed(args.seed, "--seed")
    if args.n < 0:
        raise CliError(f"--n must be a row count of 0 or more, got {args.n}")
    if os.path.lexists(args.out):
        raise CliError(f"--out {args.out} exists; generate never overwrites a file")
    run_dir = Path(args.run)
    rel = f"checkpoints/{'best' if args.best else 'final'}.ckpt"
    manifest = _completed_run(run_dir, "config.yaml", rel, "encoder.yaml")
    # with no finite FD logged, best.ckpt holds the final generators
    best_epoch = manifest.get("best_epoch")
    if args.best and not (isinstance(best_epoch, int) and best_epoch >= 1):
        raise CliError(f"run {run_dir} has no best epoch (best_epoch: {best_epoch}); "
                       "drop --best to sample the final model")
    cfg = load_config(run_dir / "config.yaml")
    models = read_checkpoint(run_dir / rel)
    enc = _read_encoder(run_dir, cfg.schema)
    heads = [
        fg.OutputHead(b, cfg.gan.gumbel_temperature, cfg.gan.numeric_activation)
        for b in fg.party_blocks(enc, fg.trained_split(cfg.variant, cfg.split))
    ]
    gens = [models[f"g{i}"] for i in range(len(heads))]
    synth = fg.generate_from(
        gens, heads, enc, cfg.gan.latent_dim, args.n,
        RngStream(args.seed, "generate"),
    )
    D.decode(synth).to_csv(args.out)
    print(args.out)
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    check_seed(args.seed, "--seed")
    cfg = load_config(args.config)
    col = M.target_column(cfg.schema)
    real = D.load_csv(args.real, cfg.schema)
    synth = D.load_csv(args.synth, cfg.schema)
    for flag, path, table in (("--real", args.real, real), ("--synth", args.synth, synth)):
        M.check_table(table, col, f"{flag} {path}")
    enc = D.fit_encoder(real)  # a constant numeric column fails here
    # made before the evaluation, which can take minutes
    with _run_dir(args.out, {"seed": args.seed}) as out:
        fd = M.frechet_distance(
            M.dataset_stats(D.encode(real, enc)),
            M.dataset_stats(D.encode(synth, enc)),
        )
        report = M.utility_fourway(real, synth, cfg.schema.target, RngStream(args.seed, "eval"))
        _write_yaml(out / "report.yaml", {
            "frechet_distance": float(fd),
            "total_difference": report.total_difference,
            "settings": {
                name: {"accuracy": acc, "f1": f1}
                for name, acc, f1 in report.as_rows()
            },
            "target": cfg.schema.target,
            "seed": args.seed,
        })
        D.write_csv(out / "metrics.csv", ["setting", "accuracy", "f1"], [
            *report.as_rows(), ("FD", fd, ""),
            ("TOTAL_DIFFERENCE", report.total_difference, "")])
    print(out)
    return 0


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def _write_feature_csv(path, x: np.ndarray, labels: np.ndarray) -> None:
    # a row at a time: all of x as Python lists at once raises the peak memory
    D.write_csv(path, ["label", *(f"f{i}" for i in range(x.shape[1]))],
                ([y, *row.tolist()] for y, row in zip(labels.tolist(), x)))


def cmd_audit(args) -> int:
    cfg = load_config(args.config)
    if cfg.audit is None:
        raise CliError("config has no audit section")
    au.thread_count()  # a bad VFSYNTH_THREADS fails before any output exists
    ds = D.load_csv(cfg.dataset_path, cfg.schema)
    # one mechanism for both worlds, calibrated for the leave-one-out world
    dp_cfg, dp_record = mechanism(cfg, ds.n_rows - 1, "the leave-one-out world")
    target = au.select_target(ds, cfg.audit)
    # a constant numeric column fails here: the leave-one-out world's rows are
    # a subset of the full table's, so its check covers both worlds
    D.fit_encoder(D.leave_one_out(ds, target))
    root = RngStream(cfg.seed, "audit")
    results = {}
    with _run_dir(cfg.output_dir if args.out is None else args.out, {"seed": cfg.seed}) as out:
        # every mode reads the one ensemble, on the stream ASSD has always used
        ensemble = au.train_shadows(ds, target, cfg, dp_cfg, root.child("assd"))
        for mode, sets in ensemble.items():
            results[mode] = au.run_attack(sets, cfg.audit, root.child(mode, "attack"))
            for kind in cfg.audit.feature_kinds:
                _write_feature_csv(
                    out / f"features_{mode}_{kind}.csv",
                    sets.features[kind],
                    sets.labels,
                )
        body = {
            "target_index": int(target),
            "shadows_per_world": cfg.audit.shadows,
            "repeats": cfg.audit.repeats,
            "dp_enabled": dp_cfg is not None,
            "results": results,
        }
        if dp_record is not None:
            body["dp"] = dp_record
        _write_yaml(out / "audit_report.yaml", body)
    print(out)
    return 0


# ---------------------------------------------------------------------------
# accountant
# ---------------------------------------------------------------------------

def cmd_accountant_report(args) -> int:
    if args.curve and os.path.lexists(args.curve):
        raise CliError(f"--curve {args.curve} exists; accountant never overwrites a file")
    rep = dpmod.budget_report(args.sigma, args.gamma, args.steps, args.delta)
    print(f"sigma={rep.sigma} gamma={rep.gamma} steps={rep.steps} delta={rep.delta}")
    print(
        f"epsilon_external={rep.epsilon_external:.6g} "
        f"(alpha={rep.alpha_external})"
    )
    print(
        f"epsilon_internal={rep.epsilon_internal:.6g} "
        f"(alpha={rep.alpha_internal})"
    )
    if args.curve:
        curve = dpmod.pipeline_curve(args.sigma, args.gamma, args.steps)
        D.write_csv(args.curve, ["alpha", "epsilon"], zip(dpmod.ALPHAS, curve))
        print(args.curve)
    return 0


def cmd_accountant_calibrate(args) -> int:
    sigma = dpmod.calibrate(args.epsilon, args.delta, args.gamma, args.steps)
    achieved, alpha = dpmod.pipeline_epsilon(
        sigma, args.gamma, args.steps, args.delta
    )
    print(f"sigma={sigma:.6g}")
    print(f"epsilon_achieved={achieved:.6g} (alpha={alpha}, target={args.epsilon})")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):  # subparsers are made of this class too
    def error(self, message):  # one error line and exit 1, as from a failed command
        raise CliError(message)


def _path(value: str) -> str:
    """The type of every path flag: an empty one names no file."""
    if not value:
        raise argparse.ArgumentTypeError(f"must be a non-empty path, got {value!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vfsynth",
        description="Vertically federated GAN synthesis with DP accounting "
        "and membership-inference auditing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a run config")
    p.add_argument("--config", type=_path, required=True)
    p.add_argument("--out", type=_path, default=None, help="override config output_dir")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="sample synthetic rows from a run")
    p.add_argument("--run", type=_path, required=True, help="run directory")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=_path, required=True, help="output CSV path")
    p.add_argument("--best", action="store_true",
                   help="use the best-FD checkpoint (default: final)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("eval", help="Frechet distance + four-way utility")
    p.add_argument("--real", type=_path, required=True)
    p.add_argument("--synth", type=_path, required=True)
    p.add_argument("--config", type=_path, required=True, help="config providing the schema")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=_path, required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("audit", help="leave-one-out membership-inference audit")
    p.add_argument("--config", type=_path, required=True)
    p.add_argument("--out", type=_path, default=None)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("accountant", help="privacy accountant")
    acc = p.add_subparsers(dest="subcommand", required=True)
    r = acc.add_parser("report", help="epsilon for given mechanism parameters")
    r.add_argument("--sigma", type=float, required=True)
    r.add_argument("--gamma", type=float, required=True)
    r.add_argument("--steps", type=int, required=True)
    r.add_argument("--delta", type=float, required=True)
    r.add_argument("--curve", type=_path, default=None,
                   help="write the composed curve as CSV to a new file")
    r.set_defaults(func=cmd_accountant_report)
    c = acc.add_parser("calibrate", help="smallest sigma meeting a budget")
    c.add_argument("--epsilon", type=float, required=True)
    c.add_argument("--delta", type=float, required=True)
    c.add_argument("--gamma", type=float, required=True)
    c.add_argument("--steps", type=int, required=True)
    c.set_defaults(func=cmd_accountant_calibrate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
