"""Binary checkpoint format for named networks.

Layout (all integers little-endian):

* magic ``b"VFSYNCK1"`` (8 bytes)
* u32 format version (currently 1)
* u32 model count
* per model: u16 name length + UTF-8 name, u32 layer count, then per layer
  a header of u8 activation code, f64 leaky slope (always
  ``nn.LEAKY_SLOPE``; any other value is rejected), u32 in-width, u32
  out-width
* payloads in the same order: each model's parameter vector
  (``Mlp.params``, little-endian float64), which holds per layer the
  row-major weight matrix followed by the bias vector

Writes are deterministic: models are serialized in sorted name order, so a
rerun with identical parameters produces byte-identical files.
"""

from __future__ import annotations

import struct

import numpy as np

from .nn import LEAKY_SLOPE, Mlp, layout

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
        for act, w_in, w_out in zip(mlp.activations, mlp.widths, mlp.widths[1:]):
            header += struct.pack("<BdII", _ACT_CODE[act], LEAKY_SLOPE, w_in, w_out)
        payload += mlp.params.astype("<f8", copy=False).tobytes()
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
        widths, activations = [spec[2] for spec in layer_specs[:1]], []
        for code, slope, w_in, w_out in layer_specs:
            if code not in _ACT_NAME:
                raise CheckpointError(f"{path}: unknown activation code {code}")
            if slope != LEAKY_SLOPE:
                raise CheckpointError(
                    f"{path}: leaky slope must be {LEAKY_SLOPE}, got {slope!r}"
                )
            if w_in != widths[-1]:
                raise CheckpointError(f"{path}: consecutive layer widths do not chain")
            widths.append(w_out)
            activations.append(_ACT_NAME[code])
        size = layout(tuple(widths))[0]
        params = np.frombuffer(r.take(8 * size), dtype="<f8").astype(np.float64)
        try:
            models[name] = Mlp(params, widths, activations)
        except ValueError as exc:  # a parameter or width the network rejects
            raise CheckpointError(f"{path}: {exc}") from None
    if r.at != len(blob):
        raise CheckpointError(f"{path}: trailing bytes after payload")
    return models
