"""Multi-party adversarial training over typed in-process messages.

Four variants share one scheduler:

* ``vflgan`` — per-party generators and two-part discriminators plus a
  server-side shared critic consuming the concatenation of the parties'
  intermediate features. In each discriminator step party i runs D_i^1 once
  on the real and once on the synthetic rows and sends the features up;
  D_i^2's WGAN cotangents on those features plus the server's feature
  gradients go back through D_i^1 once per row set, and
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
of one critic split after the feature layer. Every critic is a WGAN-GP
critic whose terms come from one routine, :func:`_critic_terms`: D_i^2 with
the parts ``(D_i^1, D_i^2)`` and D_s with the parts ``(D_s,)``, scoring its
own inputs. :func:`_generator_terms` gives the generator's loss on a critic
head, D_i^2 or D_s. Every critic's penalty weight is :data:`LAMBDA_GP` and
every network's Adam step :data:`LEARNING_RATE`, the WGAN-GP settings. Each
role steps its own critic: a party D_i^1 and D_i^2 in
:meth:`Party.critic_update`, the server D_s in :meth:`Server.disc_step`.
No role holds a step's arrays between calls: :meth:`Trainer.discriminator_step`
and :meth:`Trainer.generator_step` run each party's passes and keep the tapes.
Every gradient is a vector in its network's parameter layout (see
:mod:`vfsynth.nn`).

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

:func:`train` takes the encoded table and the vertical split. Each party
holds its columns as a view of that table (:func:`partition`), and its output
head knows only where its categorical blocks lie (:func:`party_blocks`).
It returns the trained :class:`Trainer`; :meth:`Trainer.sample` draws
synthetic rows from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import nn
from .data import DataError, EncodedDataset, Encoder, VerticalSplit, write_csv
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
    "SERVER_VARIANTS",
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
    "OutputHead",
    "party_blocks",
    "generate_from",
    "check_settings",
]

VFLGAN = "vflgan"
VFLGAN_BASE = "vflgan_base"
VERTIGAN = "vertigan"
CENTRAL = "central"
VARIANTS = (VFLGAN, VFLGAN_BASE, VERTIGAN, CENTRAL)
# variants whose parties send intermediate features to a server critic
SERVER_VARIANTS = (VFLGAN, VFLGAN_BASE)


class ProtocolFault(RuntimeError):
    """A protocol invariant was violated (e.g. backbone divergence)."""


class TrainingDiverged(RuntimeError):
    """A loss became non-finite; names the epoch and role."""


def check_settings(obj, section: str, least: dict, positive=(), choices=None) -> None:
    """Check each field of the settings dataclass ``obj`` by its annotation's
    source text: ``int`` (not a bool), finite ``float``, ``tuple[int, ...]``
    of positive widths, ``X | None`` (also None); any other type, or an
    annotation that is a type object, is a TypeError. A ``choices`` field is
    one of its names or a non-empty list of distinct names; ``positive``
    fields must be > 0, ``least`` ones at least their value."""
    for f in fields(obj):
        key, v = f"{section}.{f.name}", getattr(obj, f.name)
        if not isinstance(f.type, str):  # a module without string annotations
            raise TypeError(f"{key}: no check for a setting of type {f.type}")
        kind, names = f.type.removesuffix(" | None"), (choices or {}).get(f.name)
        if v is None and kind != f.type:
            continue
        if names and kind == "tuple[str, ...]":
            ok = (isinstance(v, tuple) and len(v) > 0 and all(n in names for n in v)
                  and len(set(v)) == len(v))
            want = f"a non-empty list of distinct names from {names}"
        elif names:
            ok, want = v in names, f"one of {names}"
        elif kind == "int":
            ok, want = type(v) is int, "an integer"  # a bool is an int subclass
        elif kind == "float":
            ok = type(v) is int or (isinstance(v, float) and math.isfinite(v))
            want = "a finite number"
        elif kind == "tuple[int, ...]":  # hidden-layer widths
            ok = isinstance(v, tuple) and all(type(w) is int and w > 0 for w in v)
            want = "a list of positive integers"
        else:
            raise TypeError(f"{key}: no check for a setting of type {f.type}")
        if not ok:
            hint = ""
            if kind == "float" and isinstance(v, str):
                try:
                    if math.isfinite(float(v)):  # not 'nan' or 'inf'
                        hint = ("; YAML reads a number without a dot, such as 1e-4, "
                                "as a string: write 1.0e-4")
                except ValueError:
                    pass
            raise ValueError(f"{key} must be {want}, got {v!r}{hint}")
        if f.name in positive and v <= 0:
            raise ValueError(f"{key} must be > 0, got {v}")
        if f.name in least and v < least[f.name]:
            raise ValueError(f"{key} must be >= {least[f.name]}, got {v}")


_GAN_POSITIVE = ("latent_dim", "feature_dim", "batch_size", "disc_steps", "epochs",
                 "gumbel_temperature")
# the Frechet distance needs two rows; a smaller fd_sample_cap would disable
# the best-checkpoint selection without saying so
_GAN_LEAST = {"fd_sample_cap": 2}
# WGAN-GP settings: the gradient-penalty weight of every critic and the Adam
# step of every network
LAMBDA_GP = 10.0
LEARNING_RATE = 1e-4


@dataclass(frozen=True)
class GanConfig:
    latent_dim: int = 32
    gen_hidden: tuple[int, ...] = (64, 64)
    disc_part1_hidden: tuple[int, ...] = (64,)
    feature_dim: int = 32
    disc_part2_hidden: tuple[int, ...] = (64,)
    server_hidden: tuple[int, ...] = (64, 64)
    batch_size: int = 64
    disc_steps: int = 5
    epochs: int = 300
    gumbel_temperature: float = 0.2
    numeric_activation: str = "identity"  # "tanh" for bounded [-1, 1] encodings
    fd_sample_cap: int = 2048

    def __post_init__(self):
        check_settings(self, "gan", _GAN_LEAST, _GAN_POSITIVE,
                       {"numeric_activation": ("identity", "tanh")})

    def check_batch(self, n_rows: int, rows: str) -> None:
        """Refuse a batch larger than the ``n_rows`` rows it is drawn from;
        ``rows`` names them (a table's path, the leave-one-out world)."""
        if self.batch_size > n_rows:
            raise DataError(f"batch size {self.batch_size} exceeds the {n_rows} rows of {rows}")


# ---------------------------------------------------------------------------
# partitioned data and generator output heads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionedData:
    views: tuple[np.ndarray, ...]  # per party, a column slice of the table
    blocks: tuple[tuple[tuple[int, int], ...], ...]  # see party_blocks


def party_blocks(encoder: Encoder, split: VerticalSplit) -> tuple:
    """Per party, the (start, width) of each categorical attribute within
    the party's columns; every other column is numeric."""
    out = []
    for party in split.parties:
        first = encoder.spans[party[0]][0]
        out.append(tuple(
            (encoder.spans[i][0] - first, encoder.spans[i][1]) for i in party
            if encoder.schema.attributes[i].kind == "categorical"
        ))
    return tuple(out)


def trained_split(variant: str, split: VerticalSplit) -> VerticalSplit:
    """The parties a variant trains: ``central`` is one party holding every
    column; the other variants train the split as given."""
    if variant == CENTRAL:
        return VerticalSplit((sum(split.parties, ()),))
    return split


def partition(data: EncodedDataset, split: VerticalSplit) -> PartitionedData:
    """Each party's columns as a view of ``data.matrix``, not a copy."""
    split.validate_against(data.encoder.schema)
    spans = data.encoder.spans
    views = tuple(data.matrix[:, spans[p[0]][0] : sum(spans[p[-1]])] for p in split.parties)
    return PartitionedData(views, party_blocks(data.encoder, split))


class OutputHead:
    """Output transform on generator logits.

    Every column passes through an identity (or tanh) head, then each
    categorical block is overwritten by a Gumbel-softmax with the configured
    temperature, drawn block by block in column order.
    """

    def __init__(self, blocks, temperature: float, numeric: str):
        self.blocks = blocks  # categorical (start, width) spans, see party_blocks
        self.temperature = temperature
        self.numeric = numeric

    def forward(self, logits: np.ndarray, rng: RngStream):
        out = np.tanh(logits) if self.numeric == "tanh" else logits.copy()
        for start, width in self.blocks:
            cols = slice(start, start + width)
            out[:, cols] = nn.gumbel_softmax(logits[:, cols], self.temperature, rng)
        return out

    def backward(self, out: np.ndarray, d_out: np.ndarray) -> np.ndarray:
        d_logits = d_out * (1.0 - out * out) if self.numeric == "tanh" else d_out.copy()
        for start, width in self.blocks:
            cols = slice(start, start + width)
            y, g = out[:, cols], d_out[:, cols]
            inner = g - np.sum(g * y, axis=1, keepdims=True)
            d_logits[:, cols] = y * inner / self.temperature
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
# roles, and the WGAN-GP terms every critic and generator shares
# ---------------------------------------------------------------------------

def _head_terms(head, f, seed):
    """One pass of a critic head over ``f`` under the constant output
    cotangent ``seed``: the head's gradient, the cotangent on ``f`` and the
    mean score. The tape lives only inside this call."""
    out, tape = nn.forward(head, f)
    grad, cot = nn.backward(head, tape, np.full_like(out, seed))
    return grad, cot, float(np.mean(out))


def _critic_terms(parts, x, x_tilde, features, beta):
    """WGAN-GP loss of the critic ``parts`` (applied in order), one gradient
    per part and the loss cotangents on the real and synthetic ``features``,
    the head ``parts[-1]``'s inputs. The penalty is taken on the whole critic
    at interpolations of ``x`` and ``x_tilde`` drawn from ``beta``; only the
    head gets the real and synthetic terms. The penalty runs first, then one
    head pass at a time, so no two of these passes hold their arrays at once."""
    penalty, grads = nn.gradient_penalty(
        parts, nn.interpolate(x, x_tilde, beta), LAMBDA_GP)
    w = 1.0 / x.shape[0]
    head_r, cot_r, mean_r = _head_terms(parts[-1], features[0], -w)
    head_s, cot_s, mean_s = _head_terms(parts[-1], features[1], w)
    grads[-1] = head_r + head_s + grads[-1]
    return -mean_r + mean_s + penalty, grads, cot_r, cot_s


def _generator_terms(head, f_tilde):
    """The generator's loss on a critic head, -mean head(f~), and its
    cotangent on ``f_tilde``."""
    _, cot, mean = _head_terms(head, f_tilde, -1.0 / f_tilde.shape[0])
    return -mean, cot


class Party:
    """One data holder. Sees only its own column view and its own streams.

    Every variant holds its critic as a first part ``d1`` (whose output is
    the intermediate feature) and an optional second part ``d2`` that maps
    the features to a score; ``d2`` is None only for ``vflgan_base``. A party
    holds its networks, Adam states and streams, and no array of a step.
    """

    def __init__(self, index, view, blocks, cfg, variant, rng):
        self.index = index
        self.view = view
        self.head = OutputHead(blocks, cfg.gumbel_temperature, cfg.numeric_activation)
        self.gumbel = rng.child("gumbel", index)
        self.beta = rng.child("beta", index)
        self.dpnoise = rng.child("dpnoise", index)
        width = view.shape[1]
        gen_widths = [cfg.latent_dim, *cfg.gen_hidden, width]
        self.n_backbone = 0  # length of the parameter prefix shared in vertigan
        if variant in SERVER_VARIANTS:
            self.g = nn.init_mlp(gen_widths, rng.child("init", "g", index))
            d_rngs = rng.child("init", "d1", index), rng.child("init", "d2", index)
        else:  # vertigan / central: plain critic, generator = backbone + head
            # the backbone draws from a stream shared by every party, so all
            # parties start (and stay) with bit-identical backbone parameters
            self.g = nn.init_mlp(gen_widths[-2:], rng.child("init", "gh", index))
            if cfg.gen_hidden:
                backbone = nn.init_mlp(gen_widths[:-1], rng.child("init", "gb"),
                                       out_activation="leaky_relu")
                self.g = nn.stack(backbone, self.g)
                self.n_backbone = backbone.params.size
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

    def critic_update(self, tape_r, tape_s, reply: FeatureGradDown | None,
                      dp: DpConfig | None) -> dict[str, float]:
        """One Adam step on both critic parts from D_i^1's tapes of the real
        and synthetic rows, whose first inputs are the rows.

        D_i^2's WGAN terms and the server's feature gradients are summed on
        the features, then go back through D_i^1 once per row set; the
        gradient penalty is taken on the critic ``(d1, d2)``. Returns
        the local loss keyed by role (``d<i+1>``), empty without D_i^2.
        """
        losses = {}
        cot_r = cot_s = None  # loss cotangents on the features
        if self.d2 is not None:
            loss, (p1, d2_grad), cot_r, cot_s = _critic_terms(
                (self.d1, self.d2), tape_r.inputs[0], tape_s.inputs[0],
                (tape_r.output, tape_s.output), self.beta)
            losses[f"d{self.index + 1}"] = loss
        if reply is not None:
            cot_r = reply.d_real if cot_r is None else cot_r + reply.d_real
            cot_s = reply.d_synth if cot_s is None else cot_s + reply.d_synth
        d1_grad = nn.backward(self.d1, tape_r, cot_r)[0]
        d1_grad += nn.backward(self.d1, tape_s, cot_s)[0]
        if self.d2 is not None:
            d1_grad += p1
            self.d2, self.adam_d2 = nn.adam_step(self.d2, d2_grad, self.adam_d2, LEARNING_RATE)
        if dp is not None:
            apply_mechanism(self.d1, d1_grad, dp.sigma, dp.clip, self.dpnoise)
        self.d1, self.adam_d1 = nn.adam_step(self.d1, d1_grad, self.adam_d1, LEARNING_RATE)
        return losses


class Server:
    """Holds the shared critic over concatenated intermediate features."""

    def __init__(self, cfg, n_parties, rng):
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
        """One Adam step on the shared critic; returns its loss and the
        per-party feature gradients.

        The gradient penalty is taken on per-row interpolations of the
        concatenated features, treated as fresh inputs (no gradient flows
        from the penalty into the parties).
        """
        f = np.hstack([m.real for m in features])
        f_tilde = np.hstack([m.synth for m in features])
        loss, (grad,), d_f, d_ft = _critic_terms((self.ds,), f, f_tilde, (f, f_tilde),
                                                 self.beta)
        self.ds, self.adam = nn.adam_step(self.ds, grad, self.adam, LEARNING_RATE)
        return loss, [
            FeatureGradDown(i, dr, dsn)
            for i, (dr, dsn) in enumerate(zip(self._split(d_f), self._split(d_ft)))
        ]

    def gen_scores(self, features: list[FeatureUp]):
        """Server term of the generator loss and its feature gradients."""
        f_tilde = np.hstack([m.synth for m in features])
        loss, d_ft = _generator_terms(self.ds, f_tilde)
        return loss, [
            FeatureGradDown(i, None, d)
            for i, d in enumerate(self._split(d_ft))
        ]


# ---------------------------------------------------------------------------
# logging and results
# ---------------------------------------------------------------------------

@dataclass
class EpochRecord:
    epoch: int
    fd: float
    loss_d: tuple[float, ...]  # per trained party, D_i^2's loss; nan without D_i^2
    loss_ds: float
    loss_g: float


@dataclass
class TrainLog:
    parties: int  # trained parties, one loss_d<i> column each
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    best_fd: float = math.inf

    def append(self, rec: EpochRecord) -> None:
        self.records.append(rec)
        if math.isfinite(rec.fd) and rec.fd < self.best_fd:
            self.best_fd = rec.fd
            self.best_epoch = rec.epoch

    def to_csv(self, path) -> None:
        header = ["epoch", "fd", *(f"loss_d{i + 1}" for i in range(self.parties)),
                  "loss_ds", "loss_g"]
        write_csv(path, header, ((r.epoch, r.fd, *r.loss_d, r.loss_ds, r.loss_g)
                                 for r in self.records))


def generate_from(
    generators: list[Mlp], heads: list[OutputHead], encoder: Encoder,
    latent_dim: int, n: int, rng: RngStream,
) -> EncodedDataset:
    z = rng.child("z").normal(n, latent_dim)
    parts = []
    for i, (g, head) in enumerate(zip(generators, heads)):
        parts.append(head.forward(nn.output(g, z), rng.child("gumbel", i)))
    return EncodedDataset(np.hstack(parts), encoder)


# ---------------------------------------------------------------------------
# trainer
# ---------------------------------------------------------------------------

class Trainer:
    """Steps the parties and the server through one training run."""

    def __init__(self, variant, data: EncodedDataset, split: VerticalSplit,
                 cfg: GanConfig, dp: DpConfig | None, rng: RngStream):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        cfg.check_batch(data.n_rows, "the encoded table")
        self.variant = variant
        self.cfg = cfg
        self.dp = dp
        self.rng = rng
        self.encoder = data.encoder
        self.n_rows = data.n_rows
        trained = partition(data, trained_split(variant, split))
        self.parties = [
            Party(i, v, b, cfg, variant, rng)
            for i, (v, b) in enumerate(zip(trained.views, trained.blocks))
        ]
        self.server = (Server(cfg, len(self.parties), rng)
                       if variant in SERVER_VARIANTS else None)
        # every party draws its batch rows from this one stream, which is how
        # row alignment between parties is realized in-process
        self.batch_stream = rng.child("batch")
        self.z_stream = rng.child("z")
        self._real_stats = (
            stats_from_matrix(data.matrix) if self.n_rows >= 2 else None
        )
        self.log = TrainLog(len(self.parties))
        self._best_gens: list[Mlp] | None = None
        self.epoch = 0

    # -- one discriminator iteration ----------------------------------------

    def discriminator_step(self) -> dict[str, float]:
        cfg = self.cfg
        idx = self.batch_stream.subsample(self.n_rows, cfg.batch_size)
        z = self.z_stream.normal(cfg.batch_size, cfg.latent_dim)
        losses: dict[str, float] = {}
        tapes = []  # per party, D_i^1's tapes of the real and synthetic rows
        for p in self.parties:
            # the critic step reads no generator tape
            x, x_tilde = p.view[idx], p.head.forward(nn.output(p.g, z), p.gumbel)
            tapes.append((nn.forward(p.d1, x)[1], nn.forward(p.d1, x_tilde)[1]))
        replies = [None] * len(self.parties)
        if self.server is not None:
            up = [FeatureUp(p.index, tape_r.output, tape_s.output)
                  for p, (tape_r, tape_s) in zip(self.parties, tapes)]
            _check_messages(up, cfg)
            losses["ds"], replies = self.server.disc_step(up)
            _check_messages(replies, cfg)
        for p, reply in zip(self.parties, replies):
            # party i's tapes go as soon as its update has read them
            losses.update(p.critic_update(*tapes.pop(0), reply, self.dp))
        return losses

    # -- one generator iteration --------------------------------------------

    def generator_step(self) -> dict[str, float]:
        cfg = self.cfg
        z = self.z_stream.normal(cfg.batch_size, cfg.latent_dim)
        passes = []
        for p in self.parties:
            logits, tape_g = nn.forward(p.g, z)
            x_tilde = p.head.forward(logits, p.gumbel)
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
                loss, d_local = _generator_terms(p.d2, tape_f.output)
                cot = d_local if cot is None else cot + d_local
                total += loss
            _, d_xt = nn.backward(p.d1, tape_f, cot)
            g_grads, _ = nn.backward(p.g, tape_g, p.head.backward(x_tilde, d_xt))
            grads.append(g_grads)
        shared = self.variant == VERTIGAN and len(self.parties) > 1
        if shared:
            self._sum_backbones(grads)
        for p, g in zip(self.parties, grads):
            p.g, p.adam_g = nn.adam_step(p.g, g, p.adam_g, LEARNING_RATE)
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
            tuple(losses.get(f"d{i + 1}", math.nan) for i in range(len(self.parties))),
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
    data: EncodedDataset,
    split: VerticalSplit,
    cfg: GanConfig,
    dp: DpConfig | None,
    rng: RngStream,
) -> Trainer:
    """Run the full protocol on the encoded table, each party holding its
    columns under ``split``: epochs of disc_steps critic iterations + one
    generator iteration, logging a fresh-sample Frechet distance per epoch."""
    return Trainer(variant, data, split, cfg, dp, rng).run()
