"""Binary checkpoint format for named networks.

Layout (all integers little-endian):

* magic ``b"VFSYNCK1"`` (8 bytes)
* u32 format version (currently 1)
* u32 model count
* per model: u16 name length + UTF-8 name, u32 layer count, then per layer
  a header of u8 activation code, f64 leaky slope (always
  ``nn.LEAKY_SLOPE``; any other value is rejected), u32 in-width, u32
  out-width
* payloads in the same order: per layer the weight matrix (row-major
  float64) followed by the bias vector

Writes are deterministic: models are serialized in sorted name order, so a
rerun with identical parameters produces byte-identical files.
"""

from __future__ import annotations

import struct

import numpy as np

from .nn import LEAKY_SLOPE, Layer, Mlp

__all__ = ["CheckpointError", "write_checkpoint", "read_checkpoint"]

MAGIC = b"VFSYNCK1"
VERSION = 1

# 1 and 3 were relu and tanh; renumbering would change every checkpoint's bytes
_ACT_CODE = {"identity": 0, "leaky_relu": 2}
_ACT_NAME = {code: name for name, code in _ACT_CODE.items()}


class CheckpointError(RuntimeError):
    """Malformed or truncated checkpoint file."""


def write_checkpoint(path, models: dict[str, Mlp]) -> None:
    header = bytearray()
    header += MAGIC
    header += struct.pack("<II", VERSION, len(models))
    payload = bytearray()
    for name in sorted(models):
        raw = name.encode("utf-8")
        header += struct.pack("<H", len(raw)) + raw
        mlp = models[name]
        header += struct.pack("<I", len(mlp.layers))
        for layer in mlp.layers:
            header += struct.pack(
                "<BdII",
                _ACT_CODE[layer.activation],
                LEAKY_SLOPE,
                layer.w.shape[0],
                layer.w.shape[1],
            )
            payload += np.ascontiguousarray(layer.w, dtype="<f8").tobytes()
            payload += np.ascontiguousarray(layer.b, dtype="<f8").tobytes()
    with open(path, "wb") as f:
        f.write(bytes(header) + bytes(payload))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.at = 0

    def take(self, n: int) -> bytes:
        if self.at + n > len(self.blob):
            raise CheckpointError("truncated checkpoint")
        out = self.blob[self.at : self.at + n]
        self.at += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def read_checkpoint(path) -> dict[str, Mlp]:
    with open(path, "rb") as f:
        blob = f.read()
    r = _Reader(blob)
    if r.take(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes")
    version, count = r.unpack("<II")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    specs = []
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        name = r.take(name_len).decode("utf-8")
        (n_layers,) = r.unpack("<I")
        layers = [r.unpack("<BdII") for _ in range(n_layers)]
        specs.append((name, layers))
    models = {}
    for name, layer_specs in specs:
        layers = []
        for code, slope, w_in, w_out in layer_specs:
            if code not in _ACT_NAME:
                raise CheckpointError(f"{path}: unknown activation code {code}")
            if slope != LEAKY_SLOPE:
                raise CheckpointError(
                    f"{path}: leaky slope must be {LEAKY_SLOPE}, got {slope!r}"
                )
            w = np.frombuffer(r.take(8 * w_in * w_out), dtype="<f8").reshape(
                w_in, w_out
            ).copy()
            b = np.frombuffer(r.take(8 * w_out), dtype="<f8").copy()
            layers.append((w, b, _ACT_NAME[code]))
        try:
            models[name] = Mlp(tuple(Layer(*spec) for spec in layers))
        except ValueError as exc:  # a parameter or width the network rejects
            raise CheckpointError(f"{path}: {exc}") from None
    if r.at != len(blob):
        raise CheckpointError(f"{path}: trailing bytes after payload")
    return models
