"""Tabular dataset ingestion, mixed-type encoding, and vertical partitioning.

Categorical attributes become one-hot blocks; continuous and integer
attributes are standardized to zero mean and unit (population) standard
deviation. To one-hot an integer-valued attribute instead, declare it
``categorical`` in the schema with its value strings as categories.

``Encoder.spans`` is the one statement of the encoded column layout. A
:class:`VerticalSplit` assigns whole attributes to parties as contiguous
ranges in schema order, so a one-hot block never straddles a party boundary
and a party's columns are one slice of the encoded matrix: from the start of
its first attribute's span to the end of its last.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DataError",
    "Attribute",
    "Schema",
    "TabularDataset",
    "Encoder",
    "EncodedDataset",
    "VerticalSplit",
    "load_csv",
    "write_csv",
    "fit_encoder",
    "encode",
    "decode",
    "leave_one_out",
    "subset",
]

KINDS = ("continuous", "integer", "categorical")


class DataError(ValueError):
    """Schema violation or malformed input data."""


@dataclass(frozen=True)
class Attribute:
    name: str
    kind: str
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"attribute {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "categorical":
            if not self.categories:
                raise DataError(f"attribute {self.name!r}: empty category list")
            if len(set(self.categories)) != len(self.categories):
                raise DataError(f"attribute {self.name!r}: duplicate categories")
        elif self.categories:
            raise DataError(f"attribute {self.name!r}: categories on a numeric kind")

    @property
    def is_numeric(self) -> bool:
        return self.kind in ("continuous", "integer")


@dataclass(frozen=True)
class Schema:
    attributes: tuple[Attribute, ...]
    target: str | None = None

    def __post_init__(self):
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise DataError("attribute names must be unique")
        if self.target is not None and self.target not in names:
            raise DataError(f"target attribute {self.target!r} not in schema")

    @property
    def names(self) -> list[str]:
        return [a.name for a in self.attributes]


@dataclass(frozen=True)
class TabularDataset:
    """Column-stored records. Categorical columns hold int64 category codes."""

    schema: Schema
    columns: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.columns) != len(self.schema.attributes):
            raise DataError("column count does not match schema")
        n = self.n_rows
        for attr, col in zip(self.schema.attributes, self.columns):
            if col.shape != (n,):
                raise DataError(f"attribute {attr.name!r}: ragged column")
            if attr.kind == "categorical":
                if col.min(initial=0) < 0 or col.max(initial=-1) >= len(attr.categories):
                    raise DataError(f"attribute {attr.name!r}: code out of range")
            elif not np.isfinite(col).all():
                raise DataError(f"attribute {attr.name!r}: non-finite value")

    @property
    def n_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def raw_row(self, i: int) -> tuple:
        out = []
        for attr, col in zip(self.schema.attributes, self.columns):
            if attr.kind == "categorical":
                out.append(attr.categories[int(col[i])])
            elif attr.kind == "integer":
                out.append(int(col[i]))
            else:
                out.append(float(col[i]))
        return tuple(out)

    def to_csv(self, path) -> None:
        write_csv(path, self.schema.names, (self.raw_row(i) for i in range(self.n_rows)))


def write_csv(path, header, rows) -> None:
    r"""The one CSV writer: ``header``, then ``rows``, as UTF-8 with ``"\n"`` line
    ends. A ``str`` cell is written as is, a Python or numpy integer in decimal
    and any other number as ``repr(float(v))``, never as ``np.float64(...)``."""
    def cell(v) -> str:
        if type(v) is float or not isinstance(v, (str, int, np.integer)):
            return repr(float(v))
        return v if isinstance(v, str) else str(int(v))

    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(list(map(cell, row)) for row in rows)


def _parse_cell(attr: Attribute, cell: str, line: int):
    cell = cell.strip()
    if cell == "":
        raise DataError(
            f"line {line}, column {attr.name!r}: missing value (not supported)"
        )
    if attr.kind == "categorical":
        try:
            return attr.categories.index(cell)
        except ValueError:
            raise DataError(
                f"line {line}, column {attr.name!r}: value {cell!r} "
                f"is not one of the declared categories"
            ) from None
    if attr.kind == "integer":
        try:
            return int(cell)
        except ValueError:
            raise DataError(
                f"line {line}, column {attr.name!r}: cannot parse {cell!r} as integer"
            ) from None
    try:
        value = float(cell)
    except ValueError:
        raise DataError(
            f"line {line}, column {attr.name!r}: cannot parse {cell!r} as number"
        ) from None
    if not math.isfinite(value):
        raise DataError(f"line {line}, column {attr.name!r}: non-finite value")
    return value


def load_csv(path, schema: Schema) -> TabularDataset:
    """Read a comma-separated, headered, UTF-8 file against the schema."""
    try:
        f = open(path, "r", newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from None
    with f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if [h.strip() for h in header] != schema.names:
            raise DataError(
                f"{path}: header {header} does not match schema attributes "
                f"{schema.names}"
            )
        cells = [[] for _ in schema.attributes]
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(schema.attributes):
                raise DataError(f"line {line_no}: expected {len(schema.attributes)} "
                                f"cells, got {len(row)}")
            for attr, cell, sink in zip(schema.attributes, row, cells):
                sink.append(_parse_cell(attr, cell, line_no))
    columns = tuple(
        np.array(c, dtype=np.int64 if a.kind in ("integer", "categorical") else np.float64)
        for a, c in zip(schema.attributes, cells)
    )
    return TabularDataset(schema, columns)


def subset(ds: TabularDataset, indices) -> TabularDataset:
    indices = np.asarray(indices, dtype=np.int64)
    return TabularDataset(ds.schema, tuple(col[indices] for col in ds.columns))


def leave_one_out(ds: TabularDataset, target_index: int) -> TabularDataset:
    """The dataset with one record removed, order preserved."""
    if not 0 <= target_index < ds.n_rows:
        raise DataError(f"record index {target_index} out of range [0, {ds.n_rows})")
    keep = np.delete(np.arange(ds.n_rows), target_index)
    return subset(ds, keep)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Encoder:
    """Column layout and standardization parameters for one schema.

    ``spans[i]`` is the (start, width) of attribute i in the encoded matrix,
    laid out here from the schema alone: one column per numeric attribute,
    one per category. Numeric attributes carry (mu, sigma) with sigma the
    population standard deviation.
    """

    schema: Schema
    mu: tuple[float, ...]
    sigma: tuple[float, ...]
    spans: tuple[tuple[int, int], ...] = field(init=False)
    width: int = field(init=False)

    def __post_init__(self):
        n = len(self.schema.attributes)
        if len(self.mu) != n or len(self.sigma) != n:
            raise DataError(f"encoder has {len(self.mu)} means and "
                            f"{len(self.sigma)} deviations for {n} attributes")
        spans, at = [], 0
        for attr in self.schema.attributes:
            width = len(attr.categories) if attr.kind == "categorical" else 1
            spans.append((at, width))
            at += width
        object.__setattr__(self, "spans", tuple(spans))
        object.__setattr__(self, "width", at)


def fit_encoder(ds: TabularDataset) -> Encoder:
    mu, sigma = [], []
    for attr, col in zip(ds.schema.attributes, ds.columns):
        if attr.is_numeric:
            if col.size == 0 or col.min() == col.max():
                raise DataError(
                    f"attribute {attr.name!r} is constant; cannot standardize"
                )
            mu.append(float(np.mean(col)))
            sigma.append(float(np.std(col)))  # population form
        else:
            mu.append(0.0)
            sigma.append(0.0)
    return Encoder(ds.schema, tuple(mu), tuple(sigma))


def encode(ds: TabularDataset, enc: Encoder) -> "EncodedDataset":
    if ds.schema != enc.schema:
        raise DataError("dataset schema does not match the encoder")
    out = np.zeros((ds.n_rows, enc.width))
    for i, (attr, col) in enumerate(zip(ds.schema.attributes, ds.columns)):
        start, width = enc.spans[i]
        if attr.is_numeric:
            out[:, start] = (col.astype(np.float64) - enc.mu[i]) / enc.sigma[i]
        else:
            out[np.arange(ds.n_rows), start + col] = 1.0
    return EncodedDataset(out, enc)


def decode(enc_ds: "EncodedDataset") -> TabularDataset:
    """Invert the encoding; one-hot blocks snap to their argmax category.

    Works on generator output as well: soft category blocks resolve to the
    largest entry and integer attributes round to the nearest integer.
    """
    enc = enc_ds.encoder
    m = enc_ds.matrix
    columns = []
    for i, attr in enumerate(enc.schema.attributes):
        start, width = enc.spans[i]
        if attr.kind == "categorical":
            codes = np.argmax(m[:, start : start + width], axis=1)
            columns.append(codes.astype(np.int64))
        else:
            raw = m[:, start] * enc.sigma[i] + enc.mu[i]
            if attr.kind == "integer":
                columns.append(np.rint(raw).astype(np.int64))
            else:
                columns.append(raw)
    return TabularDataset(enc.schema, tuple(columns))


@dataclass(frozen=True)
class EncodedDataset:
    matrix: np.ndarray
    encoder: Encoder

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.shape[1] != self.encoder.width:
            raise DataError(
                f"encoded width {self.matrix.shape} does not match encoder "
                f"width {self.encoder.width}"
            )

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]


# ---------------------------------------------------------------------------
# vertical partitioning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerticalSplit:
    """Partition of attribute indices over parties.

    Party attribute sets must be non-empty, disjoint, exhaustive, and form
    contiguous ascending ranges in schema order.
    """

    parties: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.parties) < 1:
            raise DataError("vertical split needs at least one party")
        if any(len(p) == 0 for p in self.parties):
            raise DataError("empty party in vertical split")
        flat = [i for p in self.parties for i in p]
        if len(set(flat)) != len(flat):
            raise DataError("vertical split assigns an attribute to two parties")
        expected = 0
        for p in self.parties:
            if list(p) != list(range(expected, expected + len(p))):
                raise DataError("vertical split: party attribute sets must be "
                                "contiguous ranges in schema order")
            expected += len(p)

    def validate_against(self, schema: Schema) -> None:
        flat = [i for p in self.parties for i in p]
        if sorted(flat) != list(range(len(schema.attributes))):
            raise DataError(
                f"vertical split covers {sorted(flat)} but the schema has "
                f"{len(schema.attributes)} attributes"
            )
