"""Run configuration: a versioned YAML document with a validating loader.

Top-level keys (see README for the full reference):

* ``config_version`` — must be 1.
* ``dataset`` — ``path`` plus ``schema`` (ordered ``attributes`` with
  ``name``/``kind`` and ``categories`` for categoricals; optional
  ``target``). Declaring an integer-valued attribute ``categorical`` opts it
  into one-hot encoding.
* ``split`` — list of per-party attribute-index lists.
* ``variant`` — vflgan | vflgan_base | vertigan | central.
* ``seed`` — base seed; every stream in the run derives from it.
* ``output_dir`` — run directory to create.
* ``gan`` — optional GanConfig overrides.
* ``dp`` — optional: ``epsilon``, ``delta``, ``clip``; the noise multiplier
  is calibrated by the accountant before training.
* ``audit`` — optional: ``modes`` (assd/asif), ``shadows``, ``repeats``,
  ``feature_kinds``, ``target`` index or ``select`` (outlier|nn), and
  optional ``rows`` to restrict the dataset to its first rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import yaml

from . import fedgan as fg
from .audit import FEATURE_KINDS
from .data import Attribute, Schema, VerticalSplit

__all__ = ["ConfigError", "DpTarget", "AuditSpec", "RunConfig", "load_config"]

CONFIG_VERSION = 1


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class DpTarget:
    epsilon: float
    delta: float
    clip: float = 1.0

    def __post_init__(self):
        if self.epsilon <= 0 or not 0 < self.delta < 1 or self.clip <= 0:
            raise ConfigError("dp section values out of range")


# integer audit settings and their least value; shadows and repeats are required
_AUDIT_INTS = {"shadows": 2, "repeats": 1, "target": 0, "rows": 1,
               "synthetic_rows": 1, "train_count": 1, "test_count": 1}


@dataclass(frozen=True)
class AuditSpec:
    modes: tuple[str, ...] = ("assd",)
    shadows: int = 20
    repeats: int = 5
    feature_kinds: tuple[str, ...] = FEATURE_KINDS
    target: int | None = None
    select: str | None = None  # "outlier" | "nn"
    rows: int | None = None
    synthetic_rows: int | None = None
    train_count: int | None = None  # per world; default 70% of shadows
    test_count: int | None = None

    def __post_init__(self):
        for name, least in _AUDIT_INTS.items():
            v = getattr(self, name)
            if v is None and name not in ("shadows", "repeats"):
                continue
            if isinstance(v, bool) or not isinstance(v, int):
                raise ConfigError(f"audit.{name} must be an integer, got {v!r}")
            if v < least:
                raise ConfigError(f"audit.{name} must be at least {least}, got {v}")
        for m in self.modes:
            if m not in ("assd", "asif"):
                raise ConfigError(f"unknown audit mode {m!r}")
        if self.select is not None and self.select not in ("outlier", "nn"):
            raise ConfigError("select must be 'outlier' or 'nn'")
        if self.target is None and self.select is None:
            raise ConfigError("audit needs an explicit target or a select rule")


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
    audit: AuditSpec | None = None


def _require(mapping, key, where):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ConfigError(f"missing {key!r} in {where}")
    return mapping[key]


def _schema_from(doc) -> Schema:
    attrs = []
    for i, a in enumerate(_require(doc, "attributes", "dataset.schema")):
        name = _require(a, "name", f"attribute {i}")
        kind = _require(a, "kind", f"attribute {name!r}")
        categories = tuple(str(c) for c in a.get("categories", ()))
        try:
            attrs.append(Attribute(str(name), str(kind), categories))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    target = doc.get("target")
    try:
        return Schema(tuple(attrs), target=target)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _gan_from(doc) -> fg.GanConfig:
    if doc is None:
        return fg.GanConfig()
    known = fg.GanConfig.__dataclass_fields__
    unknown = set(doc) - set(known)
    if unknown:
        raise ConfigError(f"unknown gan settings: {sorted(unknown)}")
    kwargs = {}
    for k, v in doc.items():
        kwargs[k] = tuple(v) if isinstance(v, list) else v
    try:
        return fg.GanConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"gan section: {exc}") from None


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
    version = _require(doc, "config_version", "config")
    if version != CONFIG_VERSION:
        raise ConfigError(
            f"config_version {version} unsupported (expected {CONFIG_VERSION})"
        )
    dataset = _require(doc, "dataset", "config")
    schema = _schema_from(_require(dataset, "schema", "dataset"))
    split_doc = _require(doc, "split", "config")
    try:
        split = VerticalSplit(tuple(tuple(int(i) for i in p) for p in split_doc))
        split.validate_against(schema)
    except ValueError as exc:
        raise ConfigError(f"split section: {exc}") from None
    variant = doc.get("variant", fg.VFLGAN)
    if variant not in fg.VARIANTS:
        raise ConfigError(f"unknown variant {variant!r} (choose from {fg.VARIANTS})")
    seed = int(_require(doc, "seed", "config"))
    output_dir = str(_require(doc, "output_dir", "config"))
    gan = _gan_from(doc.get("gan"))
    dp = None
    if doc.get("dp") is not None:
        dp_doc = doc["dp"]
        dp = DpTarget(
            float(_require(dp_doc, "epsilon", "dp")),
            float(_require(dp_doc, "delta", "dp")),
            float(dp_doc.get("clip", 1.0)),
        )
    audit = None
    if doc.get("audit") is not None:
        a = doc["audit"]
        audit = AuditSpec(
            modes=tuple(a.get("modes", ("assd",))),
            shadows=a.get("shadows", 20),
            repeats=a.get("repeats", 5),
            feature_kinds=tuple(a.get("feature_kinds", FEATURE_KINDS)),
            target=a.get("target"),
            select=a.get("select"),
            rows=a.get("rows"),
            synthetic_rows=a.get("synthetic_rows"),
            train_count=a.get("train_count"),
            test_count=a.get("test_count"),
        )
    return RunConfig(
        dataset_path=str(_require(dataset, "path", "dataset")),
        schema=schema,
        split=split,
        variant=variant,
        seed=seed,
        output_dir=output_dir,
        gan=gan,
        dp=dp,
        audit=audit,
    )
