"""Run configuration: a versioned YAML document and its loader.

``load_config`` parses: it names an unknown or missing key and turns each
``ValueError`` into a ``ConfigError``. The dataclasses check the values, so a
hand-built or replaced run is refused as a loaded one is:
``fedgan.check_settings`` types, bounds and name-checks the keys of ``gan``,
``dp`` and ``audit``, and ``RunConfig`` the split against the schema, the
variant, the seed and ASIF's server critic. Top-level keys (see README):

* ``config_version`` — must be 1.
* ``dataset`` — ``path`` plus ``schema`` (ordered ``attributes`` with
  ``name``/``kind`` and ``categories`` for categoricals; optional
  ``target``). Declaring an integer-valued attribute ``categorical`` opts it
  into one-hot encoding.
* ``split`` — list of per-party attribute-index lists.
* ``variant`` — vflgan | vflgan_base | vertigan | central.
* ``seed`` — integer base seed; every stream in the run derives from it.
* ``output_dir`` — run directory to create.
* ``gan`` — optional ``GanConfig`` overrides; only a missing or null
  section means the defaults.
* ``dp`` — optional ``DpTarget``: ``epsilon``, ``delta``, ``clip``, finite
  numbers; the noise multiplier is calibrated by the accountant before
  training.
* ``audit`` — optional ``AuditConfig`` settings: ``modes`` (assd/asif),
  ``shadows`` (at least 6, split 70/30 into attack train and test shadows),
  ``repeats``, ``feature_kinds``, and exactly one of a ``target`` index and
  a ``select`` rule (outlier|nn), which ``AuditConfig`` itself requires; the
  section is the one source of the audited record. Its lists must be
  non-empty and distinct; ``asif`` needs a ``variant`` with a server critic.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields

import yaml

from . import dp as dpmod
from . import fedgan as fg
from .audit import AuditConfig
from .data import Attribute, Schema, VerticalSplit
from .rng import check_seed

__all__ = ["ConfigError", "DpTarget", "RunConfig", "load_config", "mechanism"]

CONFIG_VERSION = 1


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class DpTarget:
    epsilon: float
    delta: float
    clip: float = 1.0

    def __post_init__(self):
        fg.check_settings(self, "dp", {}, positive=("epsilon", "clip"))
        for f in fields(self):
            # stored as floats: an integer epsilon is written as 10.0
            object.__setattr__(self, f.name, float(getattr(self, f.name)))
        if not 0 < self.delta < 1:
            raise ValueError(f"dp.delta must lie in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class RunConfig:
    dataset_path: str
    schema: Schema
    split: VerticalSplit
    variant: str
    seed: int
    output_dir: str
    gan: fg.GanConfig
    dp: DpTarget | None = None
    audit: AuditConfig | None = None

    def __post_init__(self):
        # a hand-built or replaced run is refused as a loaded one is
        self.split.validate_against(self.schema)
        if self.variant not in fg.VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r} (choose from {fg.VARIANTS})")
        check_seed(self.seed)
        # ASIF probes the D_i^1 whose features parties send to a server
        if self.audit and "asif" in self.audit.modes and self.variant not in fg.SERVER_VARIANTS:
            raise ValueError(f"audit.modes: asif needs a variant with a server critic "
                             f"{fg.SERVER_VARIANTS}, got {self.variant!r}")


def mechanism(run: RunConfig, n_rows: int,
              rows: str | None = None) -> tuple[dpmod.DpConfig | None, dict | None]:
    """The DP mechanism for training ``run`` on ``n_rows`` rows and the ``dp``
    record written with it, both None without a ``dp`` section; the one place
    that derives gamma = batch / rows and the step count, epochs x disc_steps.
    First refuses a batch larger than the rows, which ``rows`` names (default:
    the run's dataset path)."""
    run.gan.check_batch(n_rows, run.dataset_path if rows is None else rows)
    if run.dp is None:
        return None, None
    gamma = run.gan.batch_size / n_rows
    steps = run.gan.epochs * run.gan.disc_steps
    sigma = dpmod.calibrate(run.dp.epsilon, run.dp.delta, gamma, steps)
    report = dpmod.budget_report(sigma, gamma, steps, run.dp.delta)
    record = {"clip": run.dp.clip, "epsilon_target": run.dp.epsilon, **asdict(report)}
    return dpmod.DpConfig(clip=run.dp.clip, sigma=sigma), record


def _require(mapping, key, where):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ConfigError(f"missing {key!r} in {where}")
    return mapping[key]


def _list(v, key):
    if not isinstance(v, list):
        raise ConfigError(f"{key} must be a list, got {v!r}")
    return v


def _str(v, key):
    if not isinstance(v, str) or not v:
        raise ConfigError(f"{key} must be a non-empty string, got {v!r}")
    return v


def _schema_from(doc) -> Schema:
    _check_keys(doc, ("attributes", "target"), "dataset.schema")
    attrs = []
    entries = _require(doc, "attributes", "dataset.schema")
    for i, a in enumerate(_list(entries, "dataset.schema.attributes")):
        name = _require(a, "name", f"attribute {i}")
        _check_keys(a, ("name", "kind", "categories"), f"attribute {name!r}")
        kind = _require(a, "kind", f"attribute {name!r}")
        cats = _list(a.get("categories", []), f"attribute {name!r}: categories")
        attrs.append(Attribute(str(name), str(kind), tuple(str(c) for c in cats)))
    return Schema(tuple(attrs), target=doc.get("target"))


_TOP_KEYS = ("config_version", "dataset", "split", "variant", "seed",
             "output_dir", "gan", "dp", "audit")


def _check_keys(doc, known, where):
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(doc) - set(known)
    if unknown:
        raise ConfigError(f"unknown {where} settings: {sorted(unknown)}")


def _section(cls, doc, where):
    """Build ``cls`` from a config section; lists become tuples."""
    _check_keys(doc, [f.name for f in fields(cls)], where)
    for f in fields(cls):
        if f.default is MISSING:
            _require(doc, f.name, where)
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = yaml.safe_load(f)
    except OSError as exc:
        raise ConfigError(f"cannot open config {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path}: expected a mapping at top level")
    # the dataclasses check their own values; each ValueError becomes a ConfigError
    try:
        _check_keys(doc, _TOP_KEYS, "top-level")
        version = _require(doc, "config_version", "config")
        if type(version) is not int or version != CONFIG_VERSION:
            raise ConfigError(f"config_version {version!r} unsupported "
                              f"(expected {CONFIG_VERSION})")
        dataset = _require(doc, "dataset", "config")
        _check_keys(dataset, ("path", "schema"), "dataset")
        schema = _schema_from(_require(dataset, "schema", "dataset"))
        split_doc = _require(doc, "split", "config")
        if not all(isinstance(i, int) and not isinstance(i, bool)
                   for p in _list(split_doc, "split") for i in _list(p, "split: each party")):
            raise ConfigError(f"split must list integer attribute indices, got {split_doc!r}")
        split = VerticalSplit(tuple(tuple(p) for p in split_doc))
        seed = _require(doc, "seed", "config")
        output_dir = _str(_require(doc, "output_dir", "config"), "output_dir")
        # only a missing or null section means the defaults
        gan = _section(fg.GanConfig, {} if doc.get("gan") is None else doc["gan"], "gan")
        dp = None
        if doc.get("dp") is not None:
            dp = _section(DpTarget, doc["dp"], "dp")
        audit = (None if doc.get("audit") is None
                 else _section(AuditConfig, doc["audit"], "audit"))
        return RunConfig(dataset_path=_str(_require(dataset, "path", "dataset"), "dataset.path"),
                         schema=schema, split=split, variant=doc.get("variant", fg.VFLGAN),
                         seed=seed, output_dir=output_dir, gan=gan, dp=dp, audit=audit)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
