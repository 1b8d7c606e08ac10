"""Multi-party adversarial training over typed in-process messages.

Four variants share one scheduler:

* ``vflgan`` — per-party generators and two-part discriminators plus a
  server-side shared critic consuming the concatenation of the parties'
  intermediate features. Party i's first discriminator part receives both
  its local loss gradient and the server loss gradient flowing down through
  the feature message.
* ``vflgan_base`` — ablation without the second discriminator parts: parties
  learn only through the shared critic.
* ``vertigan`` — horizontal-style baseline: local WGAN-GP per party with a
  generator backbone kept bit-identical across parties by summing backbone
  gradients at the server.
* ``central`` — single-party WGAN-GP on the full column set (upper bound).

One epoch is ``disc_steps`` discriminator iterations followed by one
generator iteration; the minibatch is resampled every discriminator
iteration. All parties draw batch indices and latent noise from one shared
stream (the in-process stand-in for synchronized pseudorandom generators),
while interpolation coefficients, category-head noise, and DP noise come
from per-role child streams, so role execution order never affects any
number.

Stream layout under the root stream handed to :func:`train`:
``batch``, ``z`` (shared); per party i ``("gumbel", i)``, ``("beta", i)``,
``("dpnoise", i)``; ``beta_server``; per-epoch ``("eval", epoch)`` for the
quality log; initialization under ``("init", ...)``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import nn
from .data import DataError, EncodedDataset, Encoder, VerticalSplit, subsample_batch
from .dp import DpConfig, apply_mechanism
from .metrics import frechet_distance, stats_from_matrix
from .nn import AdamState, GradSet, Mlp
from .rng import RngStream

__all__ = [
    "VFLGAN",
    "VFLGAN_BASE",
    "VERTIGAN",
    "CENTRAL",
    "VARIANTS",
    "GanConfig",
    "PartitionedData",
    "partition",
    "ProtocolFault",
    "TrainingDiverged",
    "TrainLog",
    "EpochRecord",
    "TrainedModel",
    "Trainer",
    "train",
    "generate",
]

VFLGAN = "vflgan"
VFLGAN_BASE = "vflgan_base"
VERTIGAN = "vertigan"
CENTRAL = "central"
VARIANTS = (VFLGAN, VFLGAN_BASE, VERTIGAN, CENTRAL)


class ProtocolFault(RuntimeError):
    """A protocol invariant was violated (e.g. backbone divergence)."""


class TrainingDiverged(RuntimeError):
    """A loss became non-finite; names the epoch and role."""


@dataclass(frozen=True)
class GanConfig:
    latent_dim: int = 32
    gen_hidden: tuple[int, ...] = (64, 64)
    disc_part1_hidden: tuple[int, ...] = (64,)
    feature_dim: int = 32
    disc_part2_hidden: tuple[int, ...] = (64,)
    server_hidden: tuple[int, ...] = (64, 64)
    lambda_gp: float = 10.0
    lambda_server: float = 1.0  # weight of the server loss in party gradients
    lambda_gen_server: float = 1.0  # weight of the server term in generator loss
    eta_g: float = 1e-4
    eta_d: float = 1e-4
    eta_server: float = 1e-4
    batch_size: int = 64
    disc_steps: int = 5
    epochs: int = 300
    gumbel_temperature: float = 0.2
    numeric_activation: str = "identity"  # "tanh" for bounded [-1, 1] encodings
    fd_sample_cap: int = 2048

    def __post_init__(self):
        positive = (
            self.latent_dim,
            self.feature_dim,
            self.lambda_gp + 1,  # lambda_gp >= 0
            self.eta_g,
            self.eta_d,
            self.eta_server,
            self.batch_size,
            self.disc_steps,
            self.gumbel_temperature,
        )
        if any(v <= 0 for v in positive) or self.epochs < 0:
            raise ValueError("GanConfig values out of range")
        if self.numeric_activation not in ("identity", "tanh"):
            raise ValueError("numeric_activation must be 'identity' or 'tanh'")


# ---------------------------------------------------------------------------
# partitioned data and generator output heads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Block:
    kind: str  # "numeric" | "categorical"
    start: int  # relative to the party view
    width: int


@dataclass(frozen=True)
class PartitionedData:
    encoder: Encoder
    split: VerticalSplit
    views: tuple[np.ndarray, ...]
    blocks: tuple[tuple[Block, ...], ...]

    @property
    def n_rows(self) -> int:
        return self.views[0].shape[0]

    def party_width(self, i: int) -> int:
        return self.views[i].shape[1]


def party_blocks(encoder: Encoder, split: VerticalSplit) -> tuple:
    """Per-party output-head layout (block kind, offset, width)."""
    out = []
    for party in split.parties:
        blocks, at = [], 0
        for attr_index in party:
            attr = encoder.schema.attributes[attr_index]
            width = encoder.spans[attr_index][1]
            kind = "categorical" if attr.kind == "categorical" else "numeric"
            blocks.append(Block(kind, at, width))
            at += width
        out.append(tuple(blocks))
    return tuple(out)


def merge_blocks(per_party: tuple) -> tuple[Block, ...]:
    """Single-party layout covering all parties' columns in order."""
    merged, at = [], 0
    for blocks in per_party:
        for b in blocks:
            merged.append(Block(b.kind, at + b.start, b.width))
        at += sum(b.width for b in blocks)
    return tuple(merged)


def partition(enc_ds: EncodedDataset, split: VerticalSplit) -> PartitionedData:
    split.validate_against(enc_ds.encoder.schema)
    spans = split.column_spans(enc_ds.encoder)
    views = tuple(enc_ds.matrix[:, cols] for cols in spans)
    return PartitionedData(enc_ds.encoder, split, views, party_blocks(enc_ds.encoder, split))


class OutputHead:
    """Per-block output transform on generator logits.

    Numeric columns pass through an identity (or tanh) head; categorical
    blocks go through a Gumbel-softmax with the configured temperature.
    """

    def __init__(self, blocks: tuple[Block, ...], temperature: float, numeric: str):
        self.blocks = blocks
        self.temperature = temperature
        self.numeric = numeric

    @property
    def width(self) -> int:
        return sum(b.width for b in self.blocks)

    def forward(self, logits: np.ndarray, rng: RngStream | None):
        out = np.empty_like(logits)
        for b in self.blocks:
            cols = slice(b.start, b.start + b.width)
            if b.kind == "categorical":
                out[:, cols] = nn.gumbel_softmax(
                    logits[:, cols], self.temperature, rng
                )
            elif self.numeric == "tanh":
                out[:, cols] = np.tanh(logits[:, cols])
            else:
                out[:, cols] = logits[:, cols]
        return out

    def backward(self, out: np.ndarray, d_out: np.ndarray) -> np.ndarray:
        d_logits = np.empty_like(d_out)
        for b in self.blocks:
            cols = slice(b.start, b.start + b.width)
            if b.kind == "categorical":
                y = out[:, cols]
                g = d_out[:, cols]
                inner = g - np.sum(g * y, axis=1, keepdims=True)
                d_logits[:, cols] = y * inner / self.temperature
            elif self.numeric == "tanh":
                y = out[:, cols]
                d_logits[:, cols] = d_out[:, cols] * (1.0 - y * y)
            else:
                d_logits[:, cols] = d_out[:, cols]
        return d_logits


# ---------------------------------------------------------------------------
# protocol messages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureUp:
    party: int
    real: np.ndarray  # D_i^1(x_i)
    synth: np.ndarray  # D_i^1(x~_i)


@dataclass(frozen=True)
class FeatureGradDown:
    party: int
    d_real: np.ndarray  # d L_server / d f_i
    d_synth: np.ndarray  # d L_server / d f~_i


@dataclass(frozen=True)
class BackboneGradUp:
    party: int
    grads: GradSet


@dataclass(frozen=True)
class BackboneGradDown:
    grads: GradSet


def _check_message_shape(msg, width: int, batch: int) -> None:
    arrays = [a for a in (getattr(msg, "real", None), getattr(msg, "synth", None),
                          getattr(msg, "d_real", None), getattr(msg, "d_synth", None))
              if a is not None]
    for a in arrays:
        if a.shape != (batch, width):
            raise ProtocolFault(
                f"message {type(msg).__name__} for party {msg.party}: shape "
                f"{a.shape} does not match ({batch}, {width})"
            )


# ---------------------------------------------------------------------------
# roles
# ---------------------------------------------------------------------------

class Party:
    """One data holder. Sees only its own column view and its own streams."""

    def __init__(self, index, view, blocks, cfg, variant, rng):
        self.index = index
        self.view = view
        self.cfg = cfg
        self.variant = variant
        self.head = OutputHead(blocks, cfg.gumbel_temperature, cfg.numeric_activation)
        self.gumbel = rng.child("gumbel", index)
        self.beta = rng.child("beta", index)
        self.dpnoise = rng.child("dpnoise", index)
        width = view.shape[1]
        gen_widths = [cfg.latent_dim, *cfg.gen_hidden, width]
        if variant in (VFLGAN, VFLGAN_BASE):
            self.g = nn.init_mlp(gen_widths, rng.child("init", "g", index))
            self.d1 = nn.init_mlp(
                [width, *cfg.disc_part1_hidden, cfg.feature_dim],
                rng.child("init", "d1", index),
                out_activation="leaky_relu",
            )
            self.adam_d1 = AdamState.for_mlp(self.d1)
            if variant == VFLGAN:
                self.d2 = nn.init_mlp(
                    [cfg.feature_dim, *cfg.disc_part2_hidden, 1],
                    rng.child("init", "d2", index),
                )
                self.adam_d2 = AdamState.for_mlp(self.d2)
            else:
                self.d2 = None
                self.adam_d2 = None
        else:  # vertigan / central: plain critic, generator = backbone + head
            # the backbone draws from a stream shared by every party, so all
            # parties start (and stay) with bit-identical backbone parameters
            bb_widths = [cfg.latent_dim, *cfg.gen_hidden]
            if len(bb_widths) >= 2:
                backbone = nn.init_mlp(
                    bb_widths, rng.child("init", "gb"),
                    out_activation="leaky_relu",
                )
                head = nn.init_mlp(
                    [bb_widths[-1], width], rng.child("init", "gh", index)
                )
                self.g = nn.stack(backbone, head)
            else:
                self.g = nn.init_mlp(
                    [cfg.latent_dim, width], rng.child("init", "gh", index)
                )
            self.d = nn.init_mlp(
                [width, *cfg.disc_part1_hidden, cfg.feature_dim,
                 *cfg.disc_part2_hidden, 1],
                rng.child("init", "d", index),
            )
            self.adam_d = AdamState.for_mlp(self.d)
        self.adam_g = AdamState.for_mlp(self.g)
        self.n_backbone = len(cfg.gen_hidden)  # shared layers in vertigan

    # -- generation --------------------------------------------------------

    def synth_batch(self, z: np.ndarray):
        logits, tape = nn.forward(self.g, z)
        out = self.head.forward(logits, self.gumbel)
        return out, logits, tape

    # -- discriminator side -------------------------------------------------

    def critic(self) -> Mlp:
        if self.variant == VFLGAN:
            return nn.stack(self.d1, self.d2)
        if self.variant == VFLGAN_BASE:
            raise ProtocolFault("base variant has no local critic")
        return self.d

    def local_disc_terms(self, x, x_tilde):
        """Local WGAN-GP loss and parameter gradients of the full critic."""
        critic = self.critic()
        batch = x.shape[0]
        out_r, tape_r = nn.forward(critic, x)
        out_s, tape_s = nn.forward(critic, x_tilde)
        grads_r, _ = nn.backward(critic, tape_r, np.full_like(out_r, -1.0 / batch))
        grads_s, _ = nn.backward(critic, tape_s, np.full_like(out_s, 1.0 / batch))
        x_hat = nn.interpolate(x, x_tilde, self.beta)
        penalty, grads_p = nn.gradient_penalty(critic, x_hat, self.cfg.lambda_gp)
        loss = (
            -float(np.mean(out_r)) + float(np.mean(out_s)) + penalty
        )
        total = grads_r.add_(grads_s).add_(grads_p)
        return loss, total

    def feature_pass(self, x, x_tilde):
        """Forward the first discriminator part on real and synthetic rows."""
        f_r, self._tape_f_real = nn.forward(self.d1, x)
        f_s, self._tape_f_synth = nn.forward(self.d1, x_tilde)
        return FeatureUp(self.index, f_r, f_s)

    def server_grad_contribution(self, msg: FeatureGradDown) -> GradSet:
        """Backpropagate the server-loss feature gradients into D_i^1."""
        g_r, _ = nn.backward(self.d1, self._tape_f_real, msg.d_real)
        g_s, _ = nn.backward(self.d1, self._tape_f_synth, msg.d_synth)
        return g_r.add_(g_s).scale_(self.cfg.lambda_server)

    def apply_disc_update(self, d1_grads: GradSet | None, d2_grads: GradSet | None,
                          dp: DpConfig | None):
        if d1_grads is not None:
            if dp is not None:
                apply_mechanism(d1_grads, 0, dp.sigma, dp.clip, self.dpnoise)
            self.d1, self.adam_d1 = nn.adam_step(
                self.d1, d1_grads, self.adam_d1, self.cfg.eta_d
            )
        if d2_grads is not None and self.d2 is not None:
            self.d2, self.adam_d2 = nn.adam_step(
                self.d2, d2_grads, self.adam_d2, self.cfg.eta_d
            )

    def apply_critic_update(self, grads: GradSet, dp: DpConfig | None):
        if dp is not None:
            apply_mechanism(grads, 0, dp.sigma, dp.clip, self.dpnoise)
        self.d, self.adam_d = nn.adam_step(self.d, grads, self.adam_d, self.cfg.eta_d)

    def apply_gen_update(self, grads: GradSet):
        self.g, self.adam_g = nn.adam_step(self.g, grads, self.adam_g, self.cfg.eta_g)


class Server:
    """Holds the shared critic over concatenated intermediate features."""

    def __init__(self, cfg, widths, rng):
        self.cfg = cfg
        self.widths = widths  # feature width per party
        total = sum(widths)
        self.ds = nn.init_mlp(
            [total, *cfg.server_hidden, 1], rng.child("init", "ds")
        )
        self.adam = AdamState.for_mlp(self.ds)
        self.beta = rng.child("beta_server")

    def _split(self, m: np.ndarray) -> list[np.ndarray]:
        out, at = [], 0
        for w in self.widths:
            out.append(m[:, at : at + w])
            at += w
        return out

    def disc_step(self, features: list[FeatureUp]):
        """Server loss, its own gradients, and the per-party feature grads.

        The gradient penalty is taken on per-row interpolations of the
        concatenated features, treated as fresh inputs (no gradient flows
        from the penalty into the parties).
        """
        f = np.hstack([m.real for m in features])
        f_tilde = np.hstack([m.synth for m in features])
        batch = f.shape[0]
        out_r, tape_r = nn.forward(self.ds, f)
        out_s, tape_s = nn.forward(self.ds, f_tilde)
        grads_r, d_f = nn.backward(self.ds, tape_r, np.full_like(out_r, -1.0 / batch))
        grads_s, d_ft = nn.backward(self.ds, tape_s, np.full_like(out_s, 1.0 / batch))
        f_hat = nn.interpolate(f, f_tilde, self.beta)
        penalty, grads_p = nn.gradient_penalty(self.ds, f_hat, self.cfg.lambda_gp)
        loss = -float(np.mean(out_r)) + float(np.mean(out_s)) + penalty
        own = grads_r.add_(grads_s).add_(grads_p)
        down = [
            FeatureGradDown(i, dr, dsn)
            for i, (dr, dsn) in enumerate(zip(self._split(d_f), self._split(d_ft)))
        ]
        return loss, own, down

    def gen_scores(self, features: list[FeatureUp]):
        """Server term of the generator loss and its feature gradients."""
        f_tilde = np.hstack([m.synth for m in features])
        batch = f_tilde.shape[0]
        out, tape = nn.forward(self.ds, f_tilde)
        scale = -self.cfg.lambda_gen_server / batch
        _, d_ft = nn.backward(self.ds, tape, np.full_like(out, scale))
        loss = -self.cfg.lambda_gen_server * float(np.mean(out))
        return loss, [
            FeatureGradDown(i, np.zeros_like(d), d)
            for i, d in enumerate(self._split(d_ft))
        ]

    def apply_update(self, grads: GradSet):
        self.ds, self.adam = nn.adam_step(self.ds, grads, self.adam, self.cfg.eta_server)


# ---------------------------------------------------------------------------
# logging and results
# ---------------------------------------------------------------------------

@dataclass
class EpochRecord:
    epoch: int
    fd: float
    loss_d1: float
    loss_d2: float
    loss_ds: float
    loss_g: float


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    best_fd: float = math.inf

    def append(self, rec: EpochRecord) -> None:
        self.records.append(rec)
        if math.isfinite(rec.fd) and rec.fd < self.best_fd:
            self.best_fd = rec.fd
            self.best_epoch = rec.epoch

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["epoch", "fd", "loss_d1", "loss_d2", "loss_ds", "loss_g"])
            for r in self.records:
                w.writerow(
                    [r.epoch] + [repr(v) for v in
                                 (r.fd, r.loss_d1, r.loss_d2, r.loss_ds, r.loss_g)]
                )


@dataclass
class TrainedModel:
    variant: str
    cfg: GanConfig
    encoder: Encoder
    split: VerticalSplit
    generators: list[Mlp]
    heads: list[OutputHead]
    d1_parts: list[Mlp] | None  # first discriminator parts (vflgan/base)
    log: TrainLog
    best_generators: list[Mlp] | None = None

    def generator_set(self, best: bool = False) -> list[Mlp]:
        if best and self.best_generators is not None:
            return self.best_generators
        return self.generators


def generate_from(
    generators: list[Mlp], heads: list[OutputHead], encoder: Encoder,
    latent_dim: int, n: int, rng: RngStream,
) -> EncodedDataset:
    width = sum(h.width for h in heads)
    if n == 0:
        return EncodedDataset(np.zeros((0, width)), encoder)
    z = rng.child("z").normal(n, latent_dim)
    parts = []
    for i, (g, head) in enumerate(zip(generators, heads)):
        logits, _ = nn.forward(g, z)
        parts.append(head.forward(logits, rng.child("gumbel", i)))
    return EncodedDataset(np.hstack(parts), encoder)


def generate(model: TrainedModel, n: int, rng: RngStream,
             best: bool = False) -> EncodedDataset:
    """Synthetic rows: every party consumes the same latent batch."""
    return generate_from(
        model.generator_set(best), model.heads, model.encoder,
        model.cfg.latent_dim, n, rng,
    )


# ---------------------------------------------------------------------------
# trainer
# ---------------------------------------------------------------------------

class Trainer:
    """Steps the parties and the server through one training run."""

    def __init__(self, variant, parts: PartitionedData, cfg: GanConfig,
                 dp: DpConfig | None, rng: RngStream):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if cfg.batch_size > parts.n_rows:
            raise DataError(
                f"batch size {cfg.batch_size} exceeds dataset size {parts.n_rows}"
            )
        if dp is not None:
            gamma = cfg.batch_size / parts.n_rows
            if not math.isclose(dp.sampling_rate, gamma, rel_tol=1e-9):
                raise ValueError(
                    f"DpConfig sampling rate {dp.sampling_rate} does not match "
                    f"batch/dataset = {gamma}"
                )
            if dp.steps != cfg.epochs * cfg.disc_steps:
                raise ValueError(
                    f"DpConfig steps {dp.steps} do not match "
                    f"epochs*disc_steps = {cfg.epochs * cfg.disc_steps}"
                )
        self.variant = variant
        self.cfg = cfg
        self.dp = dp
        self.rng = rng
        self.encoder = parts.encoder
        self.split = parts.split
        if variant == CENTRAL:
            merged = np.hstack(parts.views)
            self.views = [merged]
            self.blocks = [merge_blocks(parts.blocks)]
        else:
            self.views = list(parts.views)
            self.blocks = [tuple(b) for b in parts.blocks]
        self.n_rows = parts.n_rows
        self.parties = [
            Party(i, v, b, cfg, variant, rng)
            for i, (v, b) in enumerate(zip(self.views, self.blocks))
        ]
        if variant in (VFLGAN, VFLGAN_BASE):
            self.server = Server(cfg, [cfg.feature_dim] * len(self.parties), rng)
        else:
            self.server = None
        self.batch_stream = rng.child("batch")
        self.z_stream = rng.child("z")
        self.real_matrix = np.hstack(self.views)
        self._real_stats = (
            stats_from_matrix(self.real_matrix) if self.n_rows >= 2 else None
        )
        self.log = TrainLog()
        self._best_gens: list[Mlp] | None = None
        self.epoch = 0

    # -- one discriminator iteration ----------------------------------------

    def discriminator_step(self) -> dict[str, float]:
        cfg = self.cfg
        idx = subsample_batch(self.n_rows, cfg.batch_size, self.batch_stream)
        z = self.z_stream.normal(cfg.batch_size, cfg.latent_dim)
        losses: dict[str, float] = {}

        if self.variant in (VFLGAN, VFLGAN_BASE):
            features = []
            local: dict[int, tuple] = {}
            for p in self.parties:
                x = p.view[idx]
                x_tilde, _, _ = p.synth_batch(z)
                if self.variant == VFLGAN:
                    loss_i, grads_i = p.local_disc_terms(x, x_tilde)
                    d1_g, d2_g = nn.split_grads(
                        grads_i, [len(p.d1.layers), len(p.d2.layers)]
                    )
                    local[p.index] = (d1_g, d2_g)
                    losses[f"d{p.index + 1}"] = loss_i
                else:
                    local[p.index] = (None, None)
                msg = p.feature_pass(x, x_tilde)
                _check_message_shape(msg, cfg.feature_dim, cfg.batch_size)
                features.append(msg)
            loss_s, server_grads, down = self.server.disc_step(features)
            losses["ds"] = loss_s
            for p, msg in zip(self.parties, down):
                _check_message_shape(msg, cfg.feature_dim, cfg.batch_size)
                flow = p.server_grad_contribution(msg)
                d1_g, d2_g = local[p.index]
                d1_total = flow if d1_g is None else d1_g.add_(flow)
                p.apply_disc_update(d1_total, d2_g, self.dp)
            self.server.apply_update(server_grads)
        else:  # vertigan / central: local WGAN-GP critics
            for p in self.parties:
                x = p.view[idx]
                x_tilde, _, _ = p.synth_batch(z)
                loss_i, grads_i = p.local_disc_terms(x, x_tilde)
                losses[f"d{p.index + 1}"] = loss_i
                p.apply_critic_update(grads_i, self.dp)
        return losses

    # -- one generator iteration --------------------------------------------

    def generator_step(self) -> dict[str, float]:
        cfg = self.cfg
        z = self.z_stream.normal(cfg.batch_size, cfg.latent_dim)
        losses: dict[str, float] = {}

        if self.variant in (VFLGAN, VFLGAN_BASE):
            features, caches = [], {}
            for p in self.parties:
                x_tilde, logits, tape_g = p.synth_batch(z)
                f_t, tape_f = nn.forward(p.d1, x_tilde)
                caches[p.index] = (x_tilde, logits, tape_g, tape_f)
                features.append(FeatureUp(p.index, np.zeros_like(f_t), f_t))
            loss_server, down = self.server.gen_scores(features)
            total = loss_server
            for p, msg in zip(self.parties, down):
                x_tilde, logits, tape_g, tape_f = caches[p.index]
                _, d_xt = nn.backward(p.d1, tape_f, msg.d_synth)
                if self.variant == VFLGAN:
                    critic = p.critic()
                    out, tape_c = nn.forward(critic, x_tilde)
                    _, d_local = nn.backward(
                        critic, tape_c, np.full_like(out, -1.0 / cfg.batch_size)
                    )
                    d_xt = d_xt + d_local
                    total += -float(np.mean(out))
                d_logits = p.head.backward(x_tilde, d_xt)
                g_grads, _ = nn.backward(p.g, tape_g, d_logits)
                p.apply_gen_update(g_grads)
        else:
            total = 0.0
            backbone_msgs, head_grads = [], {}
            for p in self.parties:
                x_tilde, logits, tape_g = p.synth_batch(z)
                critic = p.critic()
                out, tape_c = nn.forward(critic, x_tilde)
                _, d_xt = nn.backward(
                    critic, tape_c, np.full_like(out, -1.0 / cfg.batch_size)
                )
                total += -float(np.mean(out))
                d_logits = p.head.backward(x_tilde, d_xt)
                g_grads, _ = nn.backward(p.g, tape_g, d_logits)
                bb, head = nn.split_grads(
                    g_grads, [p.n_backbone, len(p.g.layers) - p.n_backbone]
                )
                backbone_msgs.append(BackboneGradUp(p.index, bb))
                head_grads[p.index] = (bb, head)
            if self.variant == VERTIGAN and len(self.parties) > 1:
                summed = GradSet(
                    [np.sum([m.grads.dw[i] for m in backbone_msgs], axis=0)
                     for i in range(len(backbone_msgs[0].grads.dw))],
                    [np.sum([m.grads.db[i] for m in backbone_msgs], axis=0)
                     for i in range(len(backbone_msgs[0].grads.db))],
                )
                down = BackboneGradDown(summed)
                for p in self.parties:
                    _, head = head_grads[p.index]
                    p.apply_gen_update(GradSet(down.grads.dw + head.dw,
                                               down.grads.db + head.db))
                self._check_backbone_equality()
            else:
                for p in self.parties:
                    bb, head = head_grads[p.index]
                    p.apply_gen_update(GradSet(bb.dw + head.dw, bb.db + head.db))
        losses["g"] = total
        return losses

    def _check_backbone_equality(self) -> None:
        ref = self.parties[0]
        for p in self.parties[1:]:
            for a, b in zip(ref.g.layers[: ref.n_backbone], p.g.layers[: p.n_backbone]):
                if not (np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)):
                    raise ProtocolFault(
                        f"generator backbones diverged between parties 0 and {p.index}"
                    )

    # -- epoch loop ----------------------------------------------------------

    def _quality_fd(self, epoch: int) -> float:
        if self._real_stats is None:
            return math.nan
        n = min(self.n_rows, self.cfg.fd_sample_cap)
        sample = generate_from(
            [p.g for p in self.parties], [p.head for p in self.parties],
            self.encoder, self.cfg.latent_dim, n, self.rng.child("eval", epoch),
        )
        # a diverged generator can make the moment statistics degenerate;
        # log nan for the epoch instead of aborting the run
        try:
            return frechet_distance(
                self._real_stats, stats_from_matrix(sample.matrix)
            )
        except (ValueError, FloatingPointError):
            return math.nan

    def run_epoch(self) -> EpochRecord:
        self.epoch += 1
        disc_losses: dict[str, float] = {}
        for _ in range(self.cfg.disc_steps):
            disc_losses = self.discriminator_step()
        gen_losses = self.generator_step()
        for role, value in {**disc_losses, **gen_losses}.items():
            if not math.isfinite(value):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {self.epoch}, role {role}"
                )
        fd = self._quality_fd(self.epoch)
        rec = EpochRecord(
            self.epoch,
            fd,
            disc_losses.get("d1", math.nan),
            disc_losses.get("d2", math.nan),
            disc_losses.get("ds", math.nan),
            gen_losses["g"],
        )
        before = self.log.best_epoch
        self.log.append(rec)
        if self.log.best_epoch != before:
            self._best_gens = [
                Mlp(tuple(p.g.layers)) for p in self.parties
            ]
        return rec

    def run(self) -> TrainedModel:
        for _ in range(self.cfg.epochs):
            self.run_epoch()
        d1_parts = (
            [p.d1 for p in self.parties]
            if self.variant in (VFLGAN, VFLGAN_BASE)
            else None
        )
        return TrainedModel(
            self.variant,
            self.cfg,
            self.encoder,
            self.split,
            [p.g for p in self.parties],
            [p.head for p in self.parties],
            d1_parts,
            self.log,
            best_generators=self._best_gens,
        )


def train(
    variant: str,
    parts: PartitionedData,
    cfg: GanConfig,
    dp: DpConfig | None,
    rng: RngStream,
) -> TrainedModel:
    """Run the full protocol: epochs of disc_steps critic iterations + one
    generator iteration, logging a fresh-sample Frechet distance per epoch."""
    return Trainer(variant, parts, cfg, dp, rng).run()
