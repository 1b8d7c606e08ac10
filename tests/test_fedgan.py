import math
import re
import tracemalloc
import weakref
from dataclasses import fields, make_dataclass
from pathlib import Path

import numpy as np
import pytest

from vfsynth import data as d
from vfsynth import fedgan as fg
from vfsynth import nn
from vfsynth.audit import AuditConfig
from vfsynth.config import DpTarget, load_config
from vfsynth.dp import DpConfig
from vfsynth.metrics import dataset_stats, frechet_distance, stats_from_matrix
from vfsynth.rng import RngStream
from vfl_monolith import MonolithVflgan


def toy_table(n=16, seed=0, with_categorical=True):
    """An encoded toy table and its two-party split."""
    rng = RngStream(seed, "toyview")
    attrs = [
        d.Attribute("a", "continuous"),
        d.Attribute("b", "continuous"),
        d.Attribute("c", "continuous"),
    ]
    cols = [rng.normal(n) + 1, rng.normal(n) * 2, rng.normal(n) - 1]
    if with_categorical:
        attrs.append(d.Attribute("k", "categorical", ("u", "v", "w")))
        cols.append(rng.integers(0, 3, size=n))
    schema = d.Schema(tuple(attrs))
    ds = d.TabularDataset(schema, tuple(cols))
    enc = d.fit_encoder(ds)
    split = d.VerticalSplit(((0, 1), (2, 3) if with_categorical else (2,)))
    return d.encode(ds, enc), split


def small_cfg(**kw):
    defaults = dict(
        latent_dim=4,
        gen_hidden=(8,),
        disc_part1_hidden=(8,),
        feature_dim=6,
        disc_part2_hidden=(8,),
        server_hidden=(8,),
        batch_size=8,
        disc_steps=2,
        epochs=2,
        fd_sample_cap=64,
    )
    defaults.update(kw)
    return fg.GanConfig(**defaults)


def params_of(mlp):
    return mlp.params.copy()


def same_params(a, b, tol=0.0):
    if tol == 0.0:
        return np.array_equal(a, b)
    return a.shape == b.shape and np.abs(a - b).max() <= tol


def replaced(mlp, edit):
    """A copy of ``mlp`` after ``edit`` ran on its per-layer (W, b) views."""
    params = mlp.params.copy()
    edit(mlp.views(params))
    return nn.Mlp(params, mlp.widths, mlp.activations)


def zero_last_weights(views):
    views[-1][0][...] = 0.0


class TestTrainBasics:
    def test_untrained_trainer_holds_initial_generators(self):
        data, split = toy_table()
        model = fg.Trainer(fg.VFLGAN, data, split, small_cfg(), None, RngStream(1))
        assert model.log.records == []
        fresh = fg.Trainer(fg.VFLGAN, data, split, small_cfg(), None, RngStream(1))
        for g1, p in zip(model.generators(), fresh.parties):
            assert same_params(params_of(g1), params_of(p.g))

    @pytest.mark.parametrize("variant", fg.VARIANTS)
    def test_deterministic_given_stream(self, variant):
        data, split = toy_table()
        m1 = fg.train(variant, data, split, small_cfg(), None, RngStream(7, "run"))
        m2 = fg.train(variant, data, split, small_cfg(), None, RngStream(7, "run"))
        for g1, g2 in zip(m1.generators(), m2.generators()):
            assert same_params(params_of(g1), params_of(g2))
        for r1, r2 in zip(m1.log.records, m2.log.records):
            assert r1 == r2

    def test_log_has_one_record_per_epoch(self):
        data, split = toy_table()
        model = fg.train(fg.VFLGAN, data, split, small_cfg(epochs=5), None, RngStream(2))
        assert [r.epoch for r in model.log.records] == [1, 2, 3, 4, 5]
        assert all(math.isfinite(r.loss_g) for r in model.log.records)

    def test_batch_larger_than_dataset_rejected(self):
        data, split = toy_table(n=4)
        with pytest.raises(d.DataError,
                           match="^batch size 8 exceeds the 4 rows of the encoded table$"):
            fg.train(fg.VFLGAN, data, split, small_cfg(batch_size=8), None, RngStream(0))

    def test_nan_loss_aborts_with_epoch_and_role(self, monkeypatch):
        data, split = toy_table()
        trainer = fg.Trainer(fg.VFLGAN, data, split, small_cfg(), None, RngStream(3))
        orig = fg.Party.critic_update

        def poisoned(self, *args):
            return {role: math.nan for role in orig(self, *args)}

        monkeypatch.setattr(fg.Party, "critic_update", poisoned)
        with pytest.raises(fg.TrainingDiverged, match="epoch 1.*role d1"):
            trainer.run_epoch()

    def test_non_finite_quality_sample_logs_nan(self, monkeypatch):
        data, split = toy_table()
        trainer = fg.Trainer(fg.VFLGAN, data, split, small_cfg(), None, RngStream(3))
        orig = fg.generate_from

        def poisoned(*args):
            sample = orig(*args)
            sample.matrix[0, 0] = np.inf
            return sample

        monkeypatch.setattr(fg, "generate_from", poisoned)
        with np.errstate(invalid="ignore"):
            assert math.isnan(trainer._quality_fd(1))

    @pytest.mark.parametrize("variant", fg.VARIANTS)
    def test_no_critic_step_state_outlives_the_epoch(self, variant):
        data, split = toy_table()
        trainer = fg.Trainer(variant, data, split, small_cfg(), None, RngStream(4))
        trainer.step_epoch()
        for p in trainer.parties:
            held = [x for v in vars(p).values()
                    for x in (v if isinstance(v, tuple) else (v,))]
            assert not any(isinstance(v, nn.Tape) for v in held)

    def test_each_partys_critic_tapes_die_before_the_next_update(self, monkeypatch):
        # three parties, so the last update runs after two earlier ones
        data, _ = toy_table()
        split = d.VerticalSplit(((0,), (1, 2), (3,)))
        trainer = fg.Trainer(fg.VFLGAN, data, split, small_cfg(), None, RngStream(5))
        orig, earlier = fg.Party.critic_update, []

        def spy(self, tape_r, tape_s, *args):
            assert all(ref() is None for ref in earlier), f"party {self.index}"
            result = orig(self, tape_r, tape_s, *args)
            earlier.extend((weakref.ref(tape_r), weakref.ref(tape_s)))
            return result

        monkeypatch.setattr(fg.Party, "critic_update", spy)
        for _ in range(2):
            earlier.clear()
            trainer.discriminator_step()
            assert len(earlier) == 6

    def test_discriminator_step_leaves_generators_untouched(self):
        data, split = toy_table()
        trainer = fg.Trainer(fg.VFLGAN, data, split, small_cfg(), None, RngStream(4))
        before = [params_of(p.g) for p in trainer.parties]
        trainer.discriminator_step()
        for p, b in zip(trainer.parties, before):
            assert same_params(params_of(p.g), b)


class TestQualityFd:
    def test_equals_the_eval_statistic_on_wine(self):
        # the real moments come from the encoded table itself, as in
        # ``vfsynth eval``, so the logged FD is that command's number exactly
        root = Path(__file__).resolve().parent.parent
        cfg = load_config(root / "configs" / "winequality-red.yaml")
        ds = d.load_csv(root / cfg.dataset_path, cfg.schema)
        data = d.encode(ds, d.fit_encoder(ds))
        trainer = fg.Trainer(fg.VFLGAN, data, cfg.split, small_cfg(fd_sample_cap=2048),
                             None, RngStream(5, "fd"))
        trainer.step_epoch()
        sample = trainer.sample(data.n_rows, trainer.rng.child("eval", 1))
        want = frechet_distance(dataset_stats(data), stats_from_matrix(sample.matrix))
        assert trainer._quality_fd(1) == want


class TestGanConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("fd_sample_cap", 1), ("fd_sample_cap", 0), ("latent_dim", 0), ("feature_dim", -1),
         ("batch_size", 0), ("disc_steps", 0), ("gumbel_temperature", 0.0), ("epochs", -1),
         ("epochs", 0)],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_cfg(**{field: value})

    def test_boundary_values_accepted(self):
        cfg = small_cfg(epochs=1, fd_sample_cap=2)
        assert cfg.epochs == 1 and cfg.fd_sample_cap == 2


# each config section, the arguments it cannot go without, and its keys
SECTIONS = [("gan", fg.GanConfig, {}), ("dp", DpTarget, {"epsilon": 10.0, "delta": 1e-3}),
            ("audit", AuditConfig, {"select": "nn"})]
SECTION_KEYS = [(section, cls, base, f) for section, cls, base in SECTIONS
                for f in fields(cls)]


class TestCheckSettings:
    """``check_settings`` checks every key of the gan, dp and audit sections."""

    # a field it has no check for is an error, not a key let through unchecked;
    # so is an annotation that is a type object, not source text (it once
    # raised an AttributeError that named no key)
    def test_uncheckable_type_names_its_key(self):
        for annotation, value in (("dict", {}), (dict, {}), (int, 3), (int | None, None)):
            Section = make_dataclass("Section", [("weights", annotation)], frozen=True)
            want = rf"^toy\.weights: no check for a setting of type {re.escape(str(annotation))}$"
            with pytest.raises(TypeError, match=want):
                fg.check_settings(Section(value), "toy", {})

    # a key added without a check accepts True and fails here
    @pytest.mark.parametrize("section,cls,base,f", SECTION_KEYS,
                             ids=[f"{s}.{f.name}" for s, _, _, f in SECTION_KEYS])
    def test_every_key_rejects_a_bool(self, section, cls, base, f):
        with pytest.raises(ValueError, match=rf"^{section}\.{f.name} must be "):
            cls(**{**base, f.name: True})

    # gan and dp have float keys; audit has none yet
    FLOATS = [(s, cls, base, f) for s, cls, base, f in SECTION_KEYS if f.type == "float"]

    @pytest.mark.parametrize("section,cls,base,f", FLOATS,
                             ids=[f"{s}.{f.name}" for s, _, _, f in FLOATS])
    def test_float_given_as_yaml_string_gets_the_hint(self, section, cls, base, f):
        with pytest.raises(ValueError, match=rf"^{section}\.{f.name} must be a finite "
                                             r"number, got '1e-4'.*write 1\.0e-4"):
            cls(**{**base, f.name: "1e-4"})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section,cls,base,f", FLOATS,
                             ids=[f"{s}.{f.name}" for s, _, _, f in FLOATS])
    def test_non_finite_yaml_string_gets_no_hint(self, section, cls, base, f, value):
        with pytest.raises(ValueError, match=rf"^{section}\.{f.name} must be a finite "
                                             rf"number, got '{value}'$"):
            cls(**{**base, f.name: value})


class TestMonolithEquivalence:
    def test_single_step_toy(self):
        data, split = toy_table(n=4, seed=5)
        cfg = small_cfg(batch_size=4, disc_steps=1, epochs=1)
        trainer = fg.Trainer(fg.VFLGAN, data, split, cfg, None, RngStream(11, "m"))
        mono = MonolithVflgan(fg.partition(data, split), cfg, RngStream(11, "m"))
        trainer.run_epoch()
        mono.run_epoch()
        for i, p in enumerate(trainer.parties):
            assert same_params(params_of(p.g), params_of(mono.g[i]))
            assert same_params(params_of(p.d1), params_of(mono.d1[i]))
            assert same_params(params_of(p.d2), params_of(mono.d2[i]))
        assert same_params(params_of(trainer.server.ds), params_of(mono.ds))

    def test_multi_epoch_equivalence(self):
        data, split = toy_table(n=16, seed=6)
        cfg = small_cfg(disc_steps=3, epochs=1)
        trainer = fg.Trainer(fg.VFLGAN, data, split, cfg, None, RngStream(12, "m"))
        mono = MonolithVflgan(fg.partition(data, split), cfg, RngStream(12, "m"))
        for _ in range(3):
            trainer.run_epoch()
            mono.run_epoch()
        for i, p in enumerate(trainer.parties):
            assert same_params(params_of(p.g), params_of(mono.g[i]), tol=1e-12)
            assert same_params(params_of(p.d1), params_of(mono.d1[i]), tol=1e-12)


class StubServer:
    """Replies with zero feature gradients of the given width."""

    def __init__(self, feature_dim, batch):
        self.feature_dim = feature_dim
        self.batch = batch

    def _zeros(self, features):
        return [
            fg.FeatureGradDown(
                m.party,
                np.zeros((self.batch, self.feature_dim)),
                np.zeros((self.batch, self.feature_dim)),
            )
            for m in features
        ]

    def disc_step(self, features):
        return 0.0, self._zeros(features)

    def gen_scores(self, features):
        return 0.0, self._zeros(features)


class TestServerCoupling:
    def test_lambda1_zero_decouples_local_discriminators(self):
        # the paper's lambda_1 = 0 ablation: with a server that replies with
        # zero feature gradients the D_i update must equal a standalone
        # WGAN-GP step computed inline with the same streams
        data, split = toy_table(n=8, seed=7)
        cfg = small_cfg(batch_size=8, disc_steps=1, epochs=1)
        trainer = fg.Trainer(fg.VFLGAN, data, split, cfg, None, RngStream(13, "l"))
        trainer.server = StubServer(cfg.feature_dim, cfg.batch_size)
        parts = fg.partition(data, split)
        root = RngStream(13, "l")
        # inline replica of party 0's local step
        i = 0
        g = nn.init_mlp([cfg.latent_dim, *cfg.gen_hidden, 2], root.child("init", "g", i))
        d1 = nn.init_mlp([2, *cfg.disc_part1_hidden, cfg.feature_dim],
                         root.child("init", "d1", i), out_activation="leaky_relu")
        d2 = nn.init_mlp([cfg.feature_dim, *cfg.disc_part2_hidden, 1],
                         root.child("init", "d2", i))
        gumbel = root.child("gumbel", i)
        beta = root.child("beta", i)
        batch = root.child("batch")
        zs = root.child("z")
        idx = batch.subsample(8, 8)
        z = zs.normal(8, cfg.latent_dim)
        head = fg.OutputHead(parts.blocks[i], cfg.gumbel_temperature, "identity")
        logits, _ = nn.forward(g, z)
        xt = head.forward(logits, gumbel)
        x = parts.views[i][idx]
        critic = nn.stack(d1, d2)
        out_r, tape_r = nn.forward(critic, x)
        out_s, tape_s = nn.forward(critic, xt)
        grads_r, _ = nn.backward(critic, tape_r, np.full_like(out_r, -1.0 / 8))
        grads_s, _ = nn.backward(critic, tape_s, np.full_like(out_s, 1.0 / 8))
        x_hat = nn.interpolate(x, xt, beta)
        _, (grads_p,) = nn.gradient_penalty((critic,), x_hat, 10.0)
        total = grads_r + grads_s + grads_p
        # the stacked vector is d1's then d2's; the zero flow-down term is
        # still added
        d1g = total[: d1.params.size] + np.zeros(d1.params.size)
        d2g = total[d1.params.size :]
        a1, a2 = nn.AdamState.for_mlp(d1), nn.AdamState.for_mlp(d2)
        d1_new, _ = nn.adam_step(d1, d1g, a1, 1e-4)
        d2_new, _ = nn.adam_step(d2, d2g, a2, 1e-4)

        trainer.discriminator_step()
        assert same_params(params_of(trainer.parties[0].d1), params_of(d1_new))
        assert same_params(params_of(trainer.parties[0].d2), params_of(d2_new))

    def test_generator_step_messages_carry_no_real_rows(self, monkeypatch):
        data, split = toy_table()
        trainer = fg.Trainer(fg.VFLGAN, data, split, small_cfg(), None, RngStream(31))
        orig = trainer.server.gen_scores
        seen = []

        def spy(features):
            loss, down = orig(features)
            seen.extend((m.real, m.synth) for m in features)
            seen.extend((m.d_real, m.d_synth) for m in down)
            return loss, down

        monkeypatch.setattr(trainer.server, "gen_scores", spy)
        trainer.generator_step()
        assert len(seen) == 2 * len(trainer.parties)
        for real, synth in seen:
            assert real is None
            assert synth.shape == (8, 6)

    @pytest.mark.parametrize("variant", [fg.VERTIGAN, fg.CENTRAL])
    def test_serverless_variants_build_no_feature_messages(self, variant, monkeypatch):
        def refuse(*args):
            raise AssertionError("feature message built without a server")

        monkeypatch.setattr(fg, "FeatureUp", refuse)
        monkeypatch.setattr(fg, "FeatureGradDown", refuse)
        fg.Trainer(variant, *toy_table(), small_cfg(), None, RngStream(32)).run_epoch()

    def test_constant_critics_freeze_generators(self):
        data, split = toy_table(n=8, seed=8)
        cfg = small_cfg(batch_size=8, disc_steps=1, epochs=1)
        trainer = fg.Trainer(fg.VFLGAN, data, split, cfg, None, RngStream(14))
        # zero the final layers: all critics output a constant
        for p in trainer.parties:
            p.d2 = replaced(p.d2, zero_last_weights)
        trainer.server.ds = replaced(trainer.server.ds, zero_last_weights)
        before = [params_of(p.g) for p in trainer.parties]
        trainer.generator_step()
        for p, b in zip(trainer.parties, before):
            assert same_params(params_of(p.g), b)

    def test_base_variant_has_no_second_parts(self):
        data, split = toy_table()
        model = fg.train(fg.VFLGAN_BASE, data, split, small_cfg(), None, RngStream(15))
        assert all(p.d2 is None for p in model.parties)
        assert len(model.log.records) == 2
        # base logs no local discriminator losses
        assert [math.isnan(v) for v in model.log.records[0].loss_d] == [True, True]

    def test_information_flow_through_messages_only(self):
        # with the server stubbed to constant replies, party 0's updates must
        # not depend on party 1's data
        def run(seed_data):
            data, split = toy_table(n=8, seed=0)
            # replace party 1's columns of the table with an unrelated matrix
            view = fg.partition(data, split).views[1]
            view[...] = RngStream(seed_data, "other").normal(*view.shape)
            cfg = small_cfg(batch_size=8, disc_steps=2, epochs=1)
            trainer = fg.Trainer(fg.VFLGAN, data, split, cfg, None, RngStream(16, "if"))
            trainer.server = StubServer(cfg.feature_dim, cfg.batch_size)
            trainer.run_epoch()
            return params_of(trainer.parties[0].d1), params_of(trainer.parties[0].g)

        d1_a, g_a = run(100)
        d1_b, g_b = run(200)
        assert same_params(d1_a, d1_b)
        assert same_params(g_a, g_b)

    @pytest.mark.parametrize("step", ["discriminator_step", "generator_step"])
    def test_reply_of_wrong_width_is_a_protocol_fault(self, step):
        cfg = small_cfg()
        trainer = fg.Trainer(fg.VFLGAN, *toy_table(), cfg, None, RngStream(33))
        trainer.server = StubServer(cfg.feature_dim + 1, cfg.batch_size)
        with pytest.raises(fg.ProtocolFault, match="FeatureGradDown for party 0"):
            getattr(trainer, step)()

    @pytest.mark.parametrize("step", ["discriminator_step", "generator_step"])
    def test_feature_of_wrong_width_is_a_protocol_fault(self, step):
        cfg = small_cfg()
        trainer = fg.Trainer(fg.VFLGAN, *toy_table(), cfg, None, RngStream(34))
        p = trainer.parties[1]
        p.d1 = nn.init_mlp([p.view.shape[1], cfg.feature_dim + 1], RngStream(35))
        with pytest.raises(fg.ProtocolFault, match="FeatureUp for party 1"):
            getattr(trainer, step)()


class TestVertigan:
    def test_backbones_stay_bit_identical(self):
        data, split = toy_table(n=16, seed=9)
        model = fg.train(fg.VERTIGAN, data, split, small_cfg(epochs=4), None, RngStream(17))
        # train() already runs the per-step check; verify on the result too
        g0, g1 = model.generators()
        nb = len(small_cfg().gen_hidden)
        for a, b in zip(g0.layers[:nb], g1.layers[:nb]):
            assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)

    def test_backbone_divergence_detected(self):
        data, split = toy_table(n=16, seed=9)
        trainer = fg.Trainer(fg.VERTIGAN, data, split, small_cfg(), None, RngStream(18))

        def shift_first_weights(views):
            views[0][0][...] += 1.0

        trainer.parties[1].g = replaced(trainer.parties[1].g, shift_first_weights)
        with pytest.raises(fg.ProtocolFault, match="diverged"):
            trainer.generator_step()

    def test_zero_gradient_party_sum_reduces_to_other(self):
        # zero party 1's critic: its generator gradient vanishes, so the
        # summed backbone update equals party 0's gradient alone, replicated
        # inline
        data, split = toy_table(n=8, seed=10)
        cfg = small_cfg(batch_size=8, disc_steps=1, epochs=1)
        trainer = fg.Trainer(fg.VERTIGAN, data, split, cfg, None, RngStream(19, "v"))
        parts = fg.partition(data, split)
        p1 = trainer.parties[1]
        p1.d1, p1.d2 = (nn.Mlp(np.zeros_like(m.params), m.widths, m.activations)
                        for m in (p1.d1, p1.d2))

        # inline replica of party 0's generator gradients
        root = RngStream(19, "v")
        p0 = trainer.parties[0]
        g_copy = nn.Mlp(p0.g.params.copy(), p0.g.widths, p0.g.activations)
        d_copy = nn.stack(p0.d1, p0.d2)
        gumbel = root.child("gumbel", 0)
        zs = root.child("z")
        z = zs.normal(8, cfg.latent_dim)
        head = fg.OutputHead(parts.blocks[0], cfg.gumbel_temperature, "identity")
        logits, tape_g = nn.forward(g_copy, z)
        xt = head.forward(logits, gumbel)
        out, tape_c = nn.forward(d_copy, xt)
        _, d_xt = nn.backward(d_copy, tape_c, np.full_like(out, -1.0 / 8))
        d_logits = head.backward(xt, d_xt)
        g_grads, _ = nn.backward(g_copy, tape_g, d_logits)
        expect, _ = nn.adam_step(g_copy, g_grads, nn.AdamState.for_mlp(g_copy), 1e-4)

        trainer.generator_step()
        nb = p0.n_backbone  # the backbone is a prefix of the generator's vector
        assert 0 < nb < g_copy.params.size
        got = params_of(trainer.parties[0].g)[:nb]
        want = params_of(expect)[:nb]
        assert same_params(got, want)

    def test_critic_step_matches_inline_wgan_gp(self):
        # the d1/d2 halves must step exactly like one monolithic WGAN-GP
        # critic drawn from the same stream, replicated inline
        data, split = toy_table(n=8, seed=12)
        cfg = small_cfg(batch_size=8, disc_steps=1, epochs=1)
        trainer = fg.Trainer(fg.VERTIGAN, data, split, cfg, None, RngStream(33, "vc"))
        parts = fg.partition(data, split)
        root = RngStream(33, "vc")
        i = 1  # the party with the categorical block
        width = parts.views[i].shape[1]
        critic = nn.init_mlp(
            [width, *cfg.disc_part1_hidden, cfg.feature_dim, *cfg.disc_part2_hidden, 1],
            root.child("init", "d", i),
        )
        g = nn.stack(
            nn.init_mlp([cfg.latent_dim, *cfg.gen_hidden], root.child("init", "gb"),
                        out_activation="leaky_relu"),
            nn.init_mlp([cfg.gen_hidden[-1], width], root.child("init", "gh", i)),
        )
        idx = root.child("batch").subsample(8, 8)
        z = root.child("z").normal(8, cfg.latent_dim)
        head = fg.OutputHead(parts.blocks[i], cfg.gumbel_temperature, "identity")
        xt = head.forward(nn.forward(g, z)[0], root.child("gumbel", i))
        x = parts.views[i][idx]
        out_r, tape_r = nn.forward(critic, x)
        out_s, tape_s = nn.forward(critic, xt)
        grads_r, _ = nn.backward(critic, tape_r, np.full_like(out_r, -1.0 / 8))
        grads_s, _ = nn.backward(critic, tape_s, np.full_like(out_s, 1.0 / 8))
        x_hat = nn.interpolate(x, xt, root.child("beta", i))
        _, (grads_p,) = nn.gradient_penalty((critic,), x_hat, 10.0)
        want, _ = nn.adam_step(
            critic, grads_r + grads_s + grads_p, nn.AdamState.for_mlp(critic), 1e-4,
        )

        trainer.discriminator_step()
        p = trainer.parties[i]
        assert len(p.d1.layers) == len(cfg.disc_part1_hidden) + 1
        assert p.d1.out_width == cfg.feature_dim
        assert same_params(params_of(nn.stack(p.d1, p.d2)), params_of(want))

    @pytest.mark.parametrize("variant", [fg.VERTIGAN, fg.CENTRAL])
    def test_no_hidden_layers_give_a_bare_head(self, variant):
        # gen_hidden empty: no backbone, and each party's generator is its
        # head alone, drawn from ("init", "gh", i)
        data, split = toy_table()
        cfg = small_cfg(gen_hidden=(), epochs=3)
        root = RngStream(36, "bare")
        trainer = fg.Trainer(variant, data, split, cfg, None, root)
        views = fg.partition(data, fg.trained_split(variant, split)).views
        assert len(trainer.parties) == len(views)
        for i, (p, view) in enumerate(zip(trainer.parties, views)):
            want = nn.init_mlp([cfg.latent_dim, view.shape[1]], root.child("init", "gh", i))
            assert p.n_backbone == 0
            assert (p.g.widths, p.g.activations) == (want.widths, want.activations)
            assert same_params(params_of(p.g), params_of(want))
        trainer.run()
        assert len(trainer.log.records) == 3
        assert all(p.n_backbone == 0 for p in trainer.parties)
        assert all(math.isfinite(r.loss_g) for r in trainer.log.records)

    def test_single_party_vertigan_equals_central(self):
        # one party holding all columns: the HFL sum degenerates and the run
        # must coincide bit-for-bit with the centralized reference
        rng = RngStream(20, "eq")
        n = 12
        schema = d.Schema(
            (d.Attribute("a", "continuous"), d.Attribute("b", "continuous"))
        )
        ds = d.TabularDataset(schema, (rng.normal(n), rng.normal(n) * 2))
        e = d.encode(ds, d.fit_encoder(ds))
        split = d.VerticalSplit(((0, 1),))
        cfg = small_cfg(batch_size=8, disc_steps=2, epochs=3)
        m_vert = fg.train(fg.VERTIGAN, e, split, cfg, None, RngStream(21, "s"))
        m_cent = fg.train(fg.CENTRAL, e, split, cfg, None, RngStream(21, "s"))
        assert same_params(
            params_of(m_vert.generators()[0]), params_of(m_cent.generators()[0])
        )


def oracle_head_forward(encoder, party, logits, numeric, temperature, rng):
    """The output head written attribute by attribute over the schema."""
    out = np.empty_like(logits)
    first = encoder.spans[party[0]][0]
    for i in party:
        start, width = encoder.spans[i]
        cols = slice(start - first, start - first + width)
        if encoder.schema.attributes[i].kind == "categorical":
            out[:, cols] = nn.gumbel_softmax(logits[:, cols], temperature, rng)
        elif numeric == "tanh":
            out[:, cols] = np.tanh(logits[:, cols])
        else:
            out[:, cols] = logits[:, cols]
    return out


def oracle_head_backward(encoder, party, out, d_out, numeric, temperature):
    d_logits = np.empty_like(d_out)
    first = encoder.spans[party[0]][0]
    for i in party:
        start, width = encoder.spans[i]
        cols = slice(start - first, start - first + width)
        y, g = out[:, cols], d_out[:, cols]
        if encoder.schema.attributes[i].kind == "categorical":
            d_logits[:, cols] = y * (g - np.sum(g * y, axis=1, keepdims=True)) / temperature
        elif numeric == "tanh":
            d_logits[:, cols] = g * (1.0 - y * y)
        else:
            d_logits[:, cols] = g
    return d_logits


class TestOutputHead:
    # numeric and categorical attributes interleave within each party
    schema = d.Schema((
        d.Attribute("a", "continuous"),
        d.Attribute("k", "categorical", ("u", "v", "w")),
        d.Attribute("b", "integer"),
        d.Attribute("q", "categorical", ("x", "y")),
        d.Attribute("c", "continuous"),
        d.Attribute("r", "categorical", ("s", "t")),
        d.Attribute("e", "continuous"),
    ))
    split = d.VerticalSplit(((0, 1, 2, 3), (4, 5, 6)))

    @pytest.mark.parametrize("numeric", ["identity", "tanh"])
    def test_matches_the_per_attribute_oracle(self, numeric):
        enc = d.Encoder(self.schema, (0.0,) * 7, (1.0,) * 7)
        for i, blocks in enumerate(fg.party_blocks(enc, self.split)):
            party = self.split.parties[i]
            width = sum(enc.spans[j][1] for j in party)
            data = RngStream(40, "head", i)
            logits, d_out = data.normal(16, width) * 3, data.normal(16, width)
            head = fg.OutputHead(blocks, 0.2, numeric)
            out = head.forward(logits, RngStream(41, i))
            want = oracle_head_forward(enc, party, logits, numeric, 0.2, RngStream(41, i))
            assert np.array_equal(out, want)
            assert np.array_equal(head.backward(out, d_out),
                                  oracle_head_backward(enc, party, out, d_out, numeric, 0.2))


class TestGenerate:
    def test_zero_rows(self):
        data, split = toy_table()
        model = fg.train(fg.VFLGAN, data, split, small_cfg(epochs=1), None, RngStream(22))
        out = model.sample(0, RngStream(1))
        assert out.matrix.shape == (0, data.encoder.width)

    def test_deterministic(self):
        data, split = toy_table()
        model = fg.train(fg.VFLGAN, data, split, small_cfg(epochs=1), None, RngStream(23))
        a = model.sample(10, RngStream(5, "gen"))
        b = model.sample(10, RngStream(5, "gen"))
        assert np.array_equal(a.matrix, b.matrix)

    def test_categorical_blocks_on_simplex(self):
        data, split = toy_table()
        model = fg.train(fg.VFLGAN, data, split, small_cfg(epochs=1), None, RngStream(24))
        out = model.sample(32, RngStream(6))
        block = out.matrix[:, 3:6]  # the one categorical block (3 cats)
        assert np.allclose(block.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(block >= 0)

    def test_decodes_against_schema(self):
        data, split = toy_table()
        model = fg.train(fg.VFLGAN, data, split, small_cfg(epochs=1), None, RngStream(25))
        out = d.decode(model.sample(20, RngStream(7)))
        assert out.n_rows == 20
        assert set(np.unique(out.columns[3])) <= {0, 1, 2}

    def test_sample_keeps_no_tape(self):
        # the shipped config's 32-64-64 generators on 20,000 rows: a pass
        # that frees each layer as it goes peaks near 2.6 arrays of
        # 20,000 x 64, one that keeps its tapes near 9
        data, split = toy_table()
        cfg = small_cfg(latent_dim=32, gen_hidden=(64, 64))
        trainer = fg.Trainer(fg.VFLGAN, data, split, cfg, None, RngStream(26))
        tracemalloc.start()
        try:
            trainer.sample(20_000, RngStream(8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (20_000 * 64 * 8)


class TestDpWiring:
    def test_mechanism_hits_first_layer_of_each_d1_only(self, monkeypatch):
        data, split = toy_table(n=16, seed=11)
        cfg = small_cfg(disc_steps=2, epochs=1)
        dpc = DpConfig(clip=1.0, sigma=1.0)
        calls = []
        orig = fg.apply_mechanism

        def spy(net, grad, sigma, clip, rng):
            calls.append((len(net.layers), sigma, clip))
            return orig(net, grad, sigma, clip, rng)

        monkeypatch.setattr(fg, "apply_mechanism", spy)
        fg.train(fg.VFLGAN, data, split, cfg, dpc, RngStream(26))
        # 2 parties x 2 disc iters x 1 epoch, each on the d1 gradient, whose
        # layer 0 the mechanism noises (test_dp::TestNoise)
        assert calls == [(len(cfg.disc_part1_hidden) + 1, 1.0, 1.0)] * 4

    def test_non_dp_runs_are_noise_free(self):
        # same stream, two runs: bit-identical (no hidden randomness)
        data, split = toy_table()
        cfg = small_cfg(epochs=3)
        a = fg.train(fg.VFLGAN, data, split, cfg, None, RngStream(27, "nf"))
        b = fg.train(fg.VFLGAN, data, split, cfg, None, RngStream(27, "nf"))
        for g1, g2 in zip(a.generators(), b.generators()):
            assert same_params(params_of(g1), params_of(g2))


class TestTrainLogCsv:
    def test_round_trip_columns(self, tmp_path):
        data, split = toy_table()
        model = fg.train(fg.VFLGAN, data, split, small_cfg(epochs=3), None, RngStream(28))
        p = tmp_path / "log.csv"
        model.log.to_csv(p)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "epoch,fd,loss_d1,loss_d2,loss_ds,loss_g"
        assert len(lines) == 4

    # one loss_d<i> column per trained party: four for a four-party run, one
    # for central, whose one party holds every column
    @pytest.mark.parametrize("variant,split,parties", [
        (fg.VFLGAN, ((0,), (1,), (2,), (3,)), 4),
        (fg.CENTRAL, ((0, 1), (2, 3)), 1),
    ], ids=["vflgan-four-party", "central"])
    def test_one_loss_column_per_trained_party(self, tmp_path, variant, split, parties):
        data, _ = toy_table()
        model = fg.train(variant, data, d.VerticalSplit(split), small_cfg(), None,
                         RngStream(30))
        p = tmp_path / "log.csv"
        model.log.to_csv(p)
        header, *rows = [line.split(",") for line in p.read_text().splitlines()]
        party_columns = [f"loss_d{i + 1}" for i in range(parties)]
        assert header == ["epoch", "fd", *party_columns, "loss_ds", "loss_g"]
        assert len(rows) == 2
        for row in rows:
            assert all(math.isfinite(float(row[header.index(k)])) for k in party_columns)

    def test_best_epoch_tracks_minimum_fd(self):
        data, split = toy_table()
        model = fg.train(fg.VFLGAN, data, split, small_cfg(epochs=4), None, RngStream(29))
        fds = [r.fd for r in model.log.records]
        finite = [f for f in fds if math.isfinite(f)]
        if finite:
            assert model.log.best_fd == min(finite)
            # Mlps are immutable and every step makes new ones, so the best
            # generators are the current ones exactly when the last epoch is best
            same = all(a is b for a, b in zip(model.generators(best=True),
                                               model.generators()))
            assert same == (model.log.best_epoch == len(fds))
