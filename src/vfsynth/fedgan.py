"""Multi-party adversarial training over typed in-process messages.

Four variants share one scheduler:

* ``vflgan`` — per-party generators and two-part discriminators plus a
  server-side shared critic consuming the concatenation of the parties'
  intermediate features. In each discriminator step party i runs D_i^1 once
  on the real and once on the synthetic rows and sends the features up;
  D_i^2's WGAN cotangents on those features plus lambda_server times the
  server's feature gradients go back through D_i^1 once per row set, and
  the sum real + synthetic + gradient penalty (taken on the critic
  ``(D_i^1, D_i^2)``) is D_i^1's gradient. The generator step likewise runs
  D_i^1 once on x~ and backpropagates the sum of the server and D_i^2
  cotangents.
* ``vflgan_base`` — ablation without the second discriminator parts: parties
  learn only through the shared critic.
* ``vertigan`` — horizontal-style baseline: local WGAN-GP per party with a
  generator backbone kept bit-identical across parties by summing backbone
  gradients at the server.
* ``central`` — single-party WGAN-GP (upper bound): one party holding every
  column, i.e. ``vertigan`` on the one-party split of :func:`trained_split`.

The last two draw D_i^1 and then D_i^2 from one stream, which gives the draws
of one critic split after the feature layer; all four variants step their
critics through the same code, minus the server. Every gradient is a vector
in its network's parameter layout (see :mod:`vfsynth.nn`).

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

:func:`train` returns the trained :class:`Trainer`; :meth:`Trainer.sample`
draws synthetic rows from it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import nn
from .data import DataError, EncodedDataset, Encoder, VerticalSplit
from .dp import DpConfig, apply_mechanism
from .metrics import frechet_distance, stats_from_matrix
from .nn import AdamState, Mlp
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
    "Trainer",
    "train",
    "trained_split",
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


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def check_setting(key: str, annotation: str, v) -> None:
    """Reject a config value of the wrong type, naming it ``<section>.<field>``."""
    if annotation == "int":
        ok, want = _is_int(v), "an integer"
    elif annotation == "float":
        ok = _is_int(v) or (isinstance(v, float) and math.isfinite(v))
        want = "a finite number"
    else:  # hidden-layer widths
        ok = isinstance(v, tuple) and all(_is_int(w) and w > 0 for w in v)
        want = "a list of positive integers"
    if not ok:
        hint = ""
        if annotation == "float" and isinstance(v, str):
            try:
                float(v)
                hint = ("; YAML reads a number without a dot, such as 1e-4, "
                        "as a string: write 1.0e-4")
            except ValueError:
                pass
        raise ValueError(f"{key} must be {want}, got {v!r}{hint}")


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
        for f in fields(self):  # f.type is the annotation's source text
            if f.type != "str":
                check_setting(f"gan.{f.name}", f.type, getattr(self, f.name))
        positive = (
            self.latent_dim,
            self.feature_dim,
            self.eta_g,
            self.eta_d,
            self.eta_server,
            self.batch_size,
            self.disc_steps,
            self.gumbel_temperature,
        )
        if any(v <= 0 for v in positive) or self.epochs < 0:
            raise ValueError("gan values out of range")
        if self.lambda_gp < 0:
            raise ValueError(f"gan.lambda_gp must be >= 0, got {self.lambda_gp}")
        if self.fd_sample_cap < 2:
            # the Frechet distance needs two rows; fewer would disable the
            # best-checkpoint selection without saying so
            raise ValueError(f"gan.fd_sample_cap must be >= 2, got {self.fd_sample_cap}")
        if self.numeric_activation not in ("identity", "tanh"):
            raise ValueError("gan.numeric_activation must be 'identity' or 'tanh'")


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


def trained_split(variant: str, split: VerticalSplit) -> VerticalSplit:
    """The parties a variant trains: ``central`` is one party holding every
    column; the other variants train the split as given."""
    if variant == CENTRAL:
        return VerticalSplit((sum(split.parties, ()),))
    return split


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

    def forward(self, logits: np.ndarray, rng: RngStream):
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

# generator-step messages carry no real-row array (``real``/``d_real`` None)

@dataclass(frozen=True)
class FeatureUp:
    party: int
    real: np.ndarray | None  # D_i^1(x_i)
    synth: np.ndarray  # D_i^1(x~_i)


@dataclass(frozen=True)
class FeatureGradDown:
    party: int
    d_real: np.ndarray | None  # d L_server / d f_i
    d_synth: np.ndarray  # d L_server / d f~_i


def _check_messages(messages, cfg: GanConfig) -> None:
    """ProtocolFault unless every array the messages carry is (batch, feature_dim)."""
    want = (cfg.batch_size, cfg.feature_dim)
    for msg in messages:
        for a in (getattr(msg, "real", None), getattr(msg, "synth", None),
                  getattr(msg, "d_real", None), getattr(msg, "d_synth", None)):
            if a is not None and a.shape != want:
                raise ProtocolFault(
                    f"message {type(msg).__name__} for party {msg.party}: shape "
                    f"{a.shape} does not match {want}"
                )


# ---------------------------------------------------------------------------
# roles
# ---------------------------------------------------------------------------

class Party:
    """One data holder. Sees only its own column view and its own streams.

    Every variant holds its critic as a first part ``d1`` (whose output is
    the intermediate feature) and an optional second part ``d2`` that maps
    the features to a score; ``d2`` is None only for ``vflgan_base``.
    """

    def __init__(self, index, view, blocks, cfg, variant, rng):
        self.index = index
        self.view = view
        self.cfg = cfg
        self.head = OutputHead(blocks, cfg.gumbel_temperature, cfg.numeric_activation)
        self.gumbel = rng.child("gumbel", index)
        self.beta = rng.child("beta", index)
        self.dpnoise = rng.child("dpnoise", index)
        width = view.shape[1]
        gen_widths = [cfg.latent_dim, *cfg.gen_hidden, width]
        self.n_backbone = 0  # length of the parameter prefix shared in vertigan
        if variant in (VFLGAN, VFLGAN_BASE):
            self.g = nn.init_mlp(gen_widths, rng.child("init", "g", index))
            d_rngs = rng.child("init", "d1", index), rng.child("init", "d2", index)
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
                self.n_backbone = backbone.params.size
            else:
                self.g = nn.init_mlp(
                    [cfg.latent_dim, width], rng.child("init", "gh", index)
                )
            # one stream for the whole critic: D_i^2 continues D_i^1's draws
            d_rngs = (rng.child("init", "d", index),) * 2
        self.d1 = nn.init_mlp(
            [width, *cfg.disc_part1_hidden, cfg.feature_dim],
            d_rngs[0],
            out_activation="leaky_relu",
        )
        self.d2 = None
        if variant != VFLGAN_BASE:
            self.d2 = nn.init_mlp([cfg.feature_dim, *cfg.disc_part2_hidden, 1], d_rngs[1])
        self.adam_g = AdamState.for_mlp(self.g)
        self.adam_d1 = AdamState.for_mlp(self.d1)
        self.adam_d2 = None if self.d2 is None else AdamState.for_mlp(self.d2)

    # -- generation --------------------------------------------------------

    def synth_batch(self, z: np.ndarray):
        logits, tape = nn.forward(self.g, z)
        return self.head.forward(logits, self.gumbel), tape

    # -- discriminator side -------------------------------------------------

    def critic_forward(self, x, x_tilde):
        """Run D_i^1 once on the real and once on the synthetic rows.

        Returns the features ``(f_i, f~_i)``; the tapes stay with the party
        until :meth:`critic_update`.
        """
        self._rows = (x, x_tilde)
        self._tapes = (nn.forward(self.d1, x)[1], nn.forward(self.d1, x_tilde)[1])
        return self._tapes[0].output, self._tapes[1].output

    def critic_update(self, reply: FeatureGradDown | None,
                      dp: DpConfig | None) -> dict[str, float]:
        """One Adam step on both critic parts from the last forward pass.

        D_i^2's WGAN terms and the server's lambda-scaled feature gradients
        are summed on the features, then go back through D_i^1 once per row
        set; the gradient penalty is taken on the critic ``(d1, d2)``. Returns
        the local loss keyed by role (``d<i+1>``), empty without D_i^2.
        """
        x, x_tilde = self._rows
        tape_r, tape_s = self._tapes
        losses = {}
        cot_r = cot_s = None  # loss cotangents on the features
        if self.d2 is not None:
            w = 1.0 / x.shape[0]
            out_r, t2_r = nn.forward(self.d2, tape_r.output)
            out_s, t2_s = nn.forward(self.d2, tape_s.output)
            d2_real, cot_r = nn.backward(self.d2, t2_r, np.full_like(out_r, -w))
            d2_synth, cot_s = nn.backward(self.d2, t2_s, np.full_like(out_s, w))
            x_hat = nn.interpolate(x, x_tilde, self.beta)
            penalty, (p1, p2) = nn.gradient_penalty(
                (self.d1, self.d2), x_hat, self.cfg.lambda_gp
            )
            losses[f"d{self.index + 1}"] = (
                -float(np.mean(out_r)) + float(np.mean(out_s)) + penalty
            )
        if reply is not None:
            lam = self.cfg.lambda_server
            up_r, up_s = lam * reply.d_real, lam * reply.d_synth
            cot_r = up_r if cot_r is None else cot_r + up_r
            cot_s = up_s if cot_s is None else cot_s + up_s
        d1_grad = nn.backward(self.d1, tape_r, cot_r)[0]
        d1_grad += nn.backward(self.d1, tape_s, cot_s)[0]
        if self.d2 is not None:
            d1_grad += p1
            self.d2, self.adam_d2 = nn.adam_step(
                self.d2, d2_real + d2_synth + p2, self.adam_d2, self.cfg.eta_d
            )
        if dp is not None:
            apply_mechanism(self.d1, d1_grad, dp.sigma, dp.clip, self.dpnoise)
        self.d1, self.adam_d1 = nn.adam_step(self.d1, d1_grad, self.adam_d1, self.cfg.eta_d)
        return losses

    def apply_gen_update(self, grad: np.ndarray):
        self.g, self.adam_g = nn.adam_step(self.g, grad, self.adam_g, self.cfg.eta_g)


class Server:
    """Holds the shared critic over concatenated intermediate features."""

    def __init__(self, cfg, n_parties, rng):
        self.cfg = cfg
        self.n_parties = n_parties  # each sends cfg.feature_dim features
        self.ds = nn.init_mlp(
            [n_parties * cfg.feature_dim, *cfg.server_hidden, 1],
            rng.child("init", "ds"),
        )
        self.adam = AdamState.for_mlp(self.ds)
        self.beta = rng.child("beta_server")

    def _split(self, m: np.ndarray) -> list[np.ndarray]:
        return np.split(m, self.n_parties, axis=1)

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
        penalty, (grads_p,) = nn.gradient_penalty((self.ds,), f_hat, self.cfg.lambda_gp)
        loss = -float(np.mean(out_r)) + float(np.mean(out_s)) + penalty
        own = grads_r + grads_s + grads_p
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
            FeatureGradDown(i, None, d)
            for i, d in enumerate(self._split(d_ft))
        ]

    def apply_update(self, grad: np.ndarray):
        self.ds, self.adam = nn.adam_step(self.ds, grad, self.adam, self.cfg.eta_server)


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
        self.n_rows = parts.n_rows
        stacked = EncodedDataset(np.hstack(parts.views), parts.encoder)
        trained = partition(stacked, trained_split(variant, parts.split))
        self.parties = [
            Party(i, v, b, cfg, variant, rng)
            for i, (v, b) in enumerate(zip(trained.views, trained.blocks))
        ]
        if variant in (VFLGAN, VFLGAN_BASE):
            self.server = Server(cfg, len(self.parties), rng)
        else:
            self.server = None
        # every party draws its batch rows from this one stream, which is how
        # row alignment between parties is realized in-process
        self.batch_stream = rng.child("batch")
        self.z_stream = rng.child("z")
        self._real_stats = (
            stats_from_matrix(stacked.matrix) if self.n_rows >= 2 else None
        )
        self.log = TrainLog()
        self._best_gens: list[Mlp] | None = None
        self.epoch = 0

    # -- one discriminator iteration ----------------------------------------

    def discriminator_step(self) -> dict[str, float]:
        cfg = self.cfg
        idx = self.batch_stream.subsample(self.n_rows, cfg.batch_size)
        z = self.z_stream.normal(cfg.batch_size, cfg.latent_dim)
        losses: dict[str, float] = {}
        features = [
            p.critic_forward(p.view[idx], p.synth_batch(z)[0]) for p in self.parties
        ]
        replies = [None] * len(self.parties)
        if self.server is not None:
            up = [FeatureUp(p.index, *f) for p, f in zip(self.parties, features)]
            _check_messages(up, cfg)
            losses["ds"], server_grads, replies = self.server.disc_step(up)
            _check_messages(replies, cfg)
            self.server.apply_update(server_grads)
        for p, reply in zip(self.parties, replies):
            losses.update(p.critic_update(reply, self.dp))
        return losses

    # -- one generator iteration --------------------------------------------

    def generator_step(self) -> dict[str, float]:
        cfg = self.cfg
        z = self.z_stream.normal(cfg.batch_size, cfg.latent_dim)
        passes = []
        for p in self.parties:
            x_tilde, tape_g = p.synth_batch(z)
            passes.append((x_tilde, tape_g, nn.forward(p.d1, x_tilde)[1]))
        total = 0.0
        replies = [None] * len(self.parties)
        if self.server is not None:
            up = [FeatureUp(p.index, None, tape_f.output)
                  for p, (_, _, tape_f) in zip(self.parties, passes)]
            _check_messages(up, cfg)
            total, replies = self.server.gen_scores(up)
            _check_messages(replies, cfg)
        grads = []
        for p, (x_tilde, tape_g, tape_f), reply in zip(self.parties, passes, replies):
            # server and local cotangents are summed on the features
            cot = None if reply is None else reply.d_synth
            if p.d2 is not None:
                out, tape_c = nn.forward(p.d2, tape_f.output)
                _, d_local = nn.backward(
                    p.d2, tape_c, np.full_like(out, -1.0 / cfg.batch_size)
                )
                cot = d_local if cot is None else cot + d_local
                total += -float(np.mean(out))
            _, d_xt = nn.backward(p.d1, tape_f, cot)
            g_grads, _ = nn.backward(p.g, tape_g, p.head.backward(x_tilde, d_xt))
            grads.append(g_grads)
        shared = self.variant == VERTIGAN and len(self.parties) > 1
        if shared:
            self._sum_backbones(grads)
        for p, g in zip(self.parties, grads):
            p.apply_gen_update(g)
        if shared:
            self._check_backbone_equality()
        return {"g": total}

    def _sum_backbones(self, grads: list[np.ndarray]) -> None:
        """Vertigan: every party applies the server's sum of backbone grads,
        the gradients' shared prefix, in place."""
        n = self.parties[0].n_backbone
        total = np.sum([g[:n] for g in grads], axis=0)
        for g in grads:
            g[:n] = total

    def _check_backbone_equality(self) -> None:
        ref = self.parties[0]
        for p in self.parties[1:]:
            if not np.array_equal(ref.g.params[: ref.n_backbone], p.g.params[: p.n_backbone]):
                raise ProtocolFault(
                    f"generator backbones diverged between parties 0 and {p.index}"
                )

    # -- epoch loop ----------------------------------------------------------

    def generators(self, best: bool = False) -> list[Mlp]:
        """The best-epoch generators if asked for and logged, else the current."""
        if best and self._best_gens is not None:
            return self._best_gens
        return [p.g for p in self.parties]

    def sample(self, n: int, rng: RngStream, best: bool = False) -> EncodedDataset:
        """Synthetic rows: every party consumes the same latent batch."""
        return generate_from(
            self.generators(best), [p.head for p in self.parties],
            self.encoder, self.cfg.latent_dim, n, rng,
        )

    def _quality_fd(self, epoch: int) -> float:
        if self._real_stats is None:
            return math.nan
        n = min(self.n_rows, self.cfg.fd_sample_cap)
        sample = self.sample(n, self.rng.child("eval", epoch))
        # a diverged generator can make the moment statistics degenerate;
        # log nan for the epoch instead of aborting the run
        try:
            return frechet_distance(
                self._real_stats, stats_from_matrix(sample.matrix)
            )
        except (ValueError, FloatingPointError):
            return math.nan

    def step_epoch(self) -> dict[str, float]:
        """One epoch of training: disc_steps critic iterations, one generator
        iteration and the divergence check. Returns the epoch's last losses."""
        self.epoch += 1
        losses: dict[str, float] = {}
        for _ in range(self.cfg.disc_steps):
            losses = self.discriminator_step()
        losses = {**losses, **self.generator_step()}
        for role, value in losses.items():
            if not math.isfinite(value):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {self.epoch}, role {role}"
                )
        return losses

    def run_epoch(self) -> EpochRecord:
        """``step_epoch`` plus the quality log: the FD of a fresh sample and
        the best-epoch generators."""
        losses = self.step_epoch()
        rec = EpochRecord(
            self.epoch,
            self._quality_fd(self.epoch),
            losses.get("d1", math.nan),
            losses.get("d2", math.nan),
            losses.get("ds", math.nan),
            losses["g"],
        )
        before = self.log.best_epoch
        self.log.append(rec)
        if self.log.best_epoch != before:
            self._best_gens = [p.g for p in self.parties]  # Mlps are immutable
        return rec

    def run(self) -> Trainer:
        for _ in range(self.cfg.epochs):
            self.run_epoch()
        return self


def train(
    variant: str,
    parts: PartitionedData,
    cfg: GanConfig,
    dp: DpConfig | None,
    rng: RngStream,
) -> Trainer:
    """Run the full protocol: epochs of disc_steps critic iterations + one
    generator iteration, logging a fresh-sample Frechet distance per epoch."""
    return Trainer(variant, parts, cfg, dp, rng).run()
