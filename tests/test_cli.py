import math
import os
import struct

import numpy as np
import pytest
import yaml

from vfsynth import checkpoint as ck
from vfsynth import data as d
from vfsynth import fedgan as fg
from vfsynth.dp import ALPHAS, budget_report, calibrate, pipeline_curve
from vfsynth import nn
from vfsynth.cli import main
from vfsynth.config import ConfigError, load_config
from vfsynth.rng import RngStream


def write_toy_csv(path, n=32, seed=0):
    rng = RngStream(seed, "clicsv")
    rows = ["a,b,k"]
    ks = ["u", "v", "w"]
    av = rng.normal(n) + 1
    bv = rng.normal(n) * 2
    kv = rng.integers(0, 3, size=n)
    for i in range(n):
        rows.append(f"{float(av[i])!r},{float(bv[i])!r},{ks[kv[i]]}")
    path.write_text("\n".join(rows) + "\n")


def toy_config(tmp_path, n=32, extra=None, seed=3):
    csv = tmp_path / "toy.csv"
    write_toy_csv(csv, n=n)
    doc = {
        "config_version": 1,
        "dataset": {
            "path": str(csv),
            "schema": {
                "target": "k",
                "attributes": [
                    {"name": "a", "kind": "continuous"},
                    {"name": "b", "kind": "continuous"},
                    {"name": "k", "kind": "categorical",
                     "categories": ["u", "v", "w"]},
                ],
            },
        },
        "split": [[0, 1], [2]],
        "variant": "vflgan",
        "seed": seed,
        "output_dir": str(tmp_path / "run"),
        "gan": {
            "latent_dim": 4,
            "gen_hidden": [8],
            "disc_part1_hidden": [8],
            "feature_dim": 4,
            "disc_part2_hidden": [8],
            "server_hidden": [8],
            "batch_size": 8,
            "disc_steps": 2,
            "epochs": 3,
        },
    }
    if extra:
        doc.update(extra)
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(doc))
    return cfg_path


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        rng = RngStream(1)
        models = {
            "g0": nn.init_mlp([3, 5, 2], rng.child(0)),
            "g1": nn.init_mlp([3, 4, 7], rng.child(1), out_activation="leaky_relu"),
        }
        p = tmp_path / "m.ckpt"
        ck.write_checkpoint(p, models)
        back = ck.read_checkpoint(p)
        assert sorted(back) == ["g0", "g1"]
        for name in models:
            for a, b in zip(models[name].layers, back[name].layers):
                assert np.array_equal(a.w, b.w)
                assert np.array_equal(a.b, b.b)
                assert a.activation == b.activation

    def test_deterministic_bytes(self, tmp_path):
        rng = RngStream(2)
        models = {"g0": nn.init_mlp([3, 4, 1], rng)}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        ck.write_checkpoint(p1, models)
        ck.write_checkpoint(p2, models)
        assert p1.read_bytes() == p2.read_bytes()

    def test_pinned_bytes(self, tmp_path):
        # activation codes: identity 0, leaky_relu 2
        g0 = nn.Mlp(np.zeros(7), (1, 2, 1), ("leaky_relu", "identity"))
        hidden, out = g0.layers
        hidden.w[...] = 1.0
        out.w[...] = 3.0
        out.b[...] = 0.5
        p = tmp_path / "m.ckpt"
        ck.write_checkpoint(p, {"g0": g0})
        want = (b"VFSYNCK1" + struct.pack("<IIH", 1, 1, 2) + b"g0"
                + struct.pack("<I", 2)
                + struct.pack("<BdII", 2, 0.2, 1, 2)
                + struct.pack("<BdII", 0, 0.2, 2, 1)
                + np.array([1.0, 1.0, 0.0, 0.0, 3.0, 3.0, 0.5], "<f8").tobytes())
        assert p.read_bytes() == want

    def test_payload_is_the_sorted_parameter_vectors(self, tmp_path):
        rng = RngStream(5)
        models = {"b": nn.init_mlp([2, 3, 1], rng.child(0)),
                  "a": nn.init_mlp([4, 2], rng.child(1))}
        p = tmp_path / "m.ckpt"
        ck.write_checkpoint(p, models)
        payload = models["a"].params.tobytes() + models["b"].params.tobytes()
        assert p.read_bytes().endswith(payload)
        header = len(p.read_bytes()) - len(payload)
        assert header == 8 + 8 + 2 * (2 + 1 + 4) + 3 * struct.calcsize("<BdII")

    @pytest.mark.parametrize("code", [1, 3])
    def test_retired_activation_codes_rejected(self, tmp_path, code):
        p = tmp_path / "m.ckpt"
        ck.write_checkpoint(p, {"g0": nn.init_mlp([3, 4, 1], RngStream(4))})
        blob = bytearray(p.read_bytes())
        blob[24] = code  # first layer header, after magic/version/count/name/layers
        p.write_bytes(bytes(blob))
        with pytest.raises(ck.CheckpointError, match=f"unknown activation code {code}"):
            ck.read_checkpoint(p)

    @pytest.mark.parametrize("slope", [-0.5, 1.0, 0.3, float("nan")])
    def test_slope_other_than_the_fixed_one_rejected(self, tmp_path, slope):
        p = tmp_path / "m.ckpt"
        ck.write_checkpoint(p, {"g0": nn.init_mlp([3, 4, 1], RngStream(4))})
        blob = bytearray(p.read_bytes())
        blob[25:33] = struct.pack("<d", slope)  # first layer's slope, after its code
        p.write_bytes(bytes(blob))
        with pytest.raises(ck.CheckpointError, match=f"{p}: leaky slope"):
            ck.read_checkpoint(p)

    def test_widths_that_do_not_chain_rejected(self, tmp_path):
        p = tmp_path / "m.ckpt"
        ck.write_checkpoint(p, {"g0": nn.init_mlp([3, 4, 1], RngStream(4))})
        blob = bytearray(p.read_bytes())
        # 3x4 + 4 and 7x2 + 2 take the same payload, but 2 does not feed 4
        blob[33:41] = struct.pack("<II", 7, 2)
        p.write_bytes(bytes(blob))
        with pytest.raises(ck.CheckpointError, match=f"{p}: consecutive layer widths"):
            ck.read_checkpoint(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(ck.CheckpointError, match="magic"):
            ck.read_checkpoint(p)

    def test_truncation_detected(self, tmp_path):
        rng = RngStream(3)
        p = tmp_path / "t.ckpt"
        ck.write_checkpoint(p, {"g0": nn.init_mlp([3, 4, 1], rng)})
        blob = p.read_bytes()
        p.write_bytes(blob[:-7])
        with pytest.raises(ck.CheckpointError, match="truncated"):
            ck.read_checkpoint(p)


class TestConfig:
    def test_load_valid(self, tmp_path):
        cfg = load_config(toy_config(tmp_path))
        assert cfg.variant == "vflgan"
        assert cfg.schema.target == "k"
        assert cfg.gan.epochs == 3

    def test_version_checked(self, tmp_path):
        p = toy_config(tmp_path, extra={"config_version": 99})
        with pytest.raises(ConfigError, match="config_version"):
            load_config(p)

    def test_unknown_gan_key(self, tmp_path):
        p = toy_config(tmp_path, extra={"gan": {"latent_dimension": 5}})
        with pytest.raises(ConfigError, match="unknown gan settings"):
            load_config(p)

    def test_split_validated(self, tmp_path):
        p = toy_config(tmp_path, extra={"split": [[0], [1]]})
        with pytest.raises(ConfigError, match="split"):
            load_config(p)

    @pytest.mark.parametrize("section,key,value", [
        (None, "varient", "central"), ("dataset", "pth", "x.csv"),
        ("dp", "clp", 0.5), ("audit", "shadow", 4), ("audit", "variant", "central"),
        ("audit", "gan", {"epochs": 1}), ("audit", "dp", {"epsilon": 1.0}),
    ])
    def test_unknown_keys_rejected(self, tmp_path, section, key, value):
        p = toy_config(tmp_path, extra={"dp": {"epsilon": 10.0, "delta": 1e-3},
                                        "audit": {"shadows": 6, "select": "nn"}})
        doc = yaml.safe_load(p.read_text())
        (doc if section is None else doc[section])[key] = value
        p.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError, match=key):
            load_config(p)

    def test_audit_needs_target_or_select(self, tmp_path):
        p = toy_config(tmp_path, extra={"audit": {"shadows": 6}})
        with pytest.raises(ConfigError, match="target"):
            load_config(p)


class TestTrainCommand:
    def test_train_writes_run_dir(self, tmp_path):
        cfg_path = toy_config(tmp_path)
        assert main(["train", "--config", str(cfg_path)]) == 0
        run = tmp_path / "run"
        assert (run / "manifest.yaml").exists()
        assert (run / "checkpoints" / "final.ckpt").exists()
        assert (run / "checkpoints" / "best.ckpt").exists()
        log = (run / "logs" / "train_log.csv").read_text().strip().split("\n")
        assert len(log) == 4  # header + 3 epochs
        manifest = yaml.safe_load((run / "manifest.yaml").read_text())
        assert manifest["status"] == "completed"
        # every inventoried digest verifies
        import hashlib

        for rel, want in manifest["inventory"].items():
            got = hashlib.sha256((run / rel).read_bytes()).hexdigest()
            assert got == want

    @pytest.mark.parametrize("field,value", [
        ("epochs", "3"), ("batch_size", 2.5), ("latent_dim", True),
        ("gen_hidden", 64), ("server_hidden", [8, 0]), ("eta_g", "1e-4"),
        ("lambda_gp", False), ("eta_g", float("nan")), ("lambda_gp", float("nan")),
        ("gumbel_temperature", float("inf")),
    ])
    def test_mistyped_gan_setting_rejected(self, tmp_path, capsys, field, value):
        cfg_path = toy_config(tmp_path)
        doc = yaml.safe_load(cfg_path.read_text())
        doc["gan"][field] = value
        cfg_path.write_text(yaml.safe_dump(doc))
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"gan.{field}" in err
        if value == "1e-4":  # YAML reads 1e-4 as a string
            assert "1.0e-4" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("field,value", [
        ("epsilon", float("nan")), ("epsilon", float("inf")), ("clip", float("inf")),
        ("delta", float("nan")), ("epsilon", True), ("delta", "1e-3"),
    ])
    def test_mistyped_dp_setting_rejected(self, tmp_path, capsys, field, value):
        dp = {"epsilon": 10.0, "delta": 1e-3, "clip": 1.0, field: value}
        cfg_path = toy_config(tmp_path, extra={"dp": dp})
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"dp.{field}" in err
        assert not (tmp_path / "run").exists()

    def test_dp_section_needs_epsilon_and_delta(self, tmp_path, capsys):
        cfg_path = toy_config(tmp_path, extra={"dp": {"delta": 1e-3}})
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert "missing 'epsilon' in dp" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [1.5, True, "1", -1, 2**64])
    def test_bad_seed_rejected(self, tmp_path, capsys, seed):
        cfg_path = toy_config(tmp_path, seed=seed)
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert "seed must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_bad_seed_override_rejected(self, tmp_path, capsys, seed):
        cfg_path = toy_config(tmp_path)
        assert main(["train", "--config", str(cfg_path), f"--seed={seed}"]) == 1
        assert "seed must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_refuses_nonempty_output(self, tmp_path):
        cfg_path = toy_config(tmp_path)
        run = tmp_path / "run"
        run.mkdir()
        (run / "junk").write_text("x")
        assert main(["train", "--config", str(cfg_path)]) == 1

    def test_same_seed_byte_identical(self, tmp_path):
        cfg_path = toy_config(tmp_path)
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "r1")]) == 0
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "r2")]) == 0
        for rel in ("checkpoints/final.ckpt", "checkpoints/best.ckpt",
                    "logs/train_log.csv"):
            b1 = (tmp_path / "r1" / rel).read_bytes()
            b2 = (tmp_path / "r2" / rel).read_bytes()
            assert b1 == b2

    def test_dp_run_records_budget(self, tmp_path):
        # integer budget and clip: stored and written as floats
        cfg_path = toy_config(
            tmp_path, extra={"dp": {"epsilon": 10, "delta": 1e-3, "clip": 1}}
        )
        assert main(["train", "--config", str(cfg_path)]) == 0
        text = (tmp_path / "run" / "manifest.yaml").read_text()
        assert "  epsilon_target: 10.0\n" in text and "  clip: 1.0\n" in text
        dp = yaml.safe_load(text)["dp"]
        assert sorted(dp) == [
            "alpha_external", "alpha_internal", "clip", "delta", "epsilon_external",
            "epsilon_internal", "epsilon_target", "gamma", "sigma", "steps",
        ]
        # 32 rows, batch 8, 3 epochs x 2 critic steps
        sigma = calibrate(10.0, 1e-3, 8 / 32, 6)
        want = budget_report(sigma, 8 / 32, 6, 1e-3)
        assert (dp["clip"], dp["epsilon_target"]) == (1.0, 10.0)
        assert (dp["sigma"], dp["gamma"], dp["steps"], dp["delta"]) == (sigma, 0.25, 6, 1e-3)
        assert (dp["epsilon_external"], dp["alpha_external"]) == (
            want.epsilon_external, want.alpha_external)
        assert (dp["epsilon_internal"], dp["alpha_internal"]) == (
            want.epsilon_internal, want.alpha_internal)
        assert dp["epsilon_external"] <= 10.0
        assert dp["epsilon_internal"] >= dp["epsilon_external"]

    def test_failed_run_marked(self, tmp_path, monkeypatch):
        cfg_path = toy_config(tmp_path)

        def boom(*a, **k):
            raise fg.TrainingDiverged("non-finite loss at epoch 1, role d1")

        monkeypatch.setattr("vfsynth.cli.fg.train", boom)
        assert main(["train", "--config", str(cfg_path)]) == 1
        manifest = yaml.safe_load((tmp_path / "run" / "manifest.yaml").read_text())
        assert manifest["status"] == "failed"
        assert "epoch 1" in manifest["error"]


class TestGenerateCommand:
    def test_generate_roundtrip(self, tmp_path):
        cfg_path = toy_config(tmp_path)
        assert main(["train", "--config", str(cfg_path)]) == 0
        out = tmp_path / "synth.csv"
        rc = main(["generate", "--run", str(tmp_path / "run"), "--n", "20",
                   "--seed", "9", "--out", str(out)])
        assert rc == 0
        cfg = load_config(cfg_path)
        back = d.load_csv(out, cfg.schema)
        assert back.n_rows == 20

    @pytest.mark.parametrize("variant", fg.VARIANTS)
    def test_generate_matches_trainer(self, tmp_path, variant):
        # the heads rebuilt from the config lay out every variant's columns
        # as the trainer did, central's one party included
        cfg_path = toy_config(tmp_path, extra={"variant": variant})
        assert main(["train", "--config", str(cfg_path)]) == 0
        out = tmp_path / "synth.csv"
        assert main(["generate", "--run", str(tmp_path / "run"), "--best", "--n", "20",
                     "--seed", "9", "--out", str(out)]) == 0
        cfg = load_config(cfg_path)
        ds = d.load_csv(cfg.dataset_path, cfg.schema)
        parts = fg.partition(d.encode(ds, d.fit_encoder(ds)), cfg.split)
        trainer = fg.train(variant, parts, cfg.gan, None, RngStream(cfg.seed, "train"))
        want = tmp_path / "want.csv"
        d.decode(trainer.sample(20, RngStream(9, "generate"), best=True)).to_csv(want)
        assert out.read_bytes() == want.read_bytes()

    def test_zero_rows_header_only(self, tmp_path):
        cfg_path = toy_config(tmp_path)
        main(["train", "--config", str(cfg_path)])
        out = tmp_path / "empty.csv"
        assert main(["generate", "--run", str(tmp_path / "run"), "--n", "0",
                     "--seed", "9", "--out", str(out)]) == 0
        assert out.read_text().strip() == "a,b,k"

    def test_same_seed_same_csv(self, tmp_path):
        cfg_path = toy_config(tmp_path)
        main(["train", "--config", str(cfg_path)])
        o1, o2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        main(["generate", "--run", str(tmp_path / "run"), "--n", "15",
              "--seed", "4", "--out", str(o1)])
        main(["generate", "--run", str(tmp_path / "run"), "--n", "15",
              "--seed", "4", "--out", str(o2)])
        assert o1.read_bytes() == o2.read_bytes()

    def test_tampered_checkpoint_rejected(self, tmp_path):
        cfg_path = toy_config(tmp_path)
        main(["train", "--config", str(cfg_path)])
        target = tmp_path / "run" / "checkpoints" / "final.ckpt"
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF
        target.write_bytes(bytes(blob))
        rc = main(["generate", "--run", str(tmp_path / "run"), "--n", "5",
                   "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_tampered_config_rejected(self, tmp_path, capsys):
        main(["train", "--config", str(toy_config(tmp_path))])
        target = tmp_path / "run" / "config.yaml"
        doc = yaml.safe_load(target.read_text())
        doc["gan"]["numeric_activation"] = "tanh"
        target.write_text(yaml.safe_dump(doc))
        rc = main(["generate", "--run", str(tmp_path / "run"), "--n", "5",
                   "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "config.yaml digest mismatch" in capsys.readouterr().err


def clock_around(monkeypatch, module, name, **kwargs):
    """Log clock reads and calls of ``module.name`` (given ``kwargs``) in
    order; each manifest timestamp is its read's position in that log."""
    log = []
    real = getattr(module, name)

    def clock():
        log.append("clock")
        return f"event-{len(log) - 1}"

    def work(*args):
        log.append("work")
        return real(*args, **kwargs)

    monkeypatch.setattr("vfsynth.cli._utc_now", clock)
    monkeypatch.setattr(module, name, work)
    return log


class TestEvalCommand:
    def test_eval_self_comparison(self, tmp_path, monkeypatch):
        from vfsynth import metrics

        cfg_path = toy_config(tmp_path, n=120)
        cfg = load_config(cfg_path)
        clock_around(monkeypatch, metrics, "utility_fourway", trees=2)
        rc = main([
            "eval", "--real", cfg.dataset_path, "--synth", cfg.dataset_path,
            "--config", str(cfg_path), "--out", str(tmp_path / "ev"),
            "--seed", "2",
        ])
        assert rc == 0
        rep = yaml.safe_load((tmp_path / "ev" / "report.yaml").read_text())
        assert rep["frechet_distance"] == pytest.approx(0.0, abs=1e-8)
        # paired design: the same table on both sides trains the same forests
        assert rep["total_difference"] == 0.0
        lines = (tmp_path / "ev" / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == "setting,accuracy,f1"
        assert len(lines) == 7  # 4 settings + FD + total difference

    def test_manifest_start_time_taken_first(self, tmp_path, monkeypatch):
        from vfsynth import metrics

        cfg_path = toy_config(tmp_path, n=40)
        cfg = load_config(cfg_path)
        log = clock_around(monkeypatch, metrics, "utility_fourway", trees=2)
        assert main(["eval", "--real", cfg.dataset_path, "--synth", cfg.dataset_path,
                     "--config", str(cfg_path), "--out", str(tmp_path / "ev")]) == 0
        manifest = yaml.safe_load((tmp_path / "ev" / "manifest.yaml").read_text())
        assert log == ["clock", "work", "clock"]
        assert (manifest["created_utc"], manifest["completed_utc"]) == ("event-0", "event-2")

    def test_missing_target_named(self, tmp_path, capsys):
        cfg_path = toy_config(tmp_path)
        cfg = load_config(cfg_path)
        rc = main([
            "eval", "--real", cfg.dataset_path, "--synth", cfg.dataset_path,
            "--config", str(cfg_path), "--target", "nope",
            "--out", str(tmp_path / "ev2"),
        ])
        assert rc == 1
        assert "nope" in capsys.readouterr().err


class TestAuditCommand:
    def test_audit_end_to_end_small(self, tmp_path):
        cfg_path = toy_config(
            tmp_path,
            n=24,
            extra={
                "audit": {
                    "modes": ["assd"],
                    "shadows": 4,
                    "repeats": 2,
                    "feature_kinds": ["naive"],
                    "select": "nn",
                    "train_count": 2,
                    "test_count": 2,
                },
                "gan": {
                    "latent_dim": 4, "gen_hidden": [8],
                    "disc_part1_hidden": [8], "feature_dim": 4,
                    "disc_part2_hidden": [8], "server_hidden": [8],
                    "batch_size": 8, "disc_steps": 1, "epochs": 2,
                },
            },
        )
        rc = main(["audit", "--config", str(cfg_path),
                   "--out", str(tmp_path / "aud")])
        assert rc == 0
        rep = yaml.safe_load((tmp_path / "aud" / "audit_report.yaml").read_text())
        assert "assd" in rep["results"]
        assert 0.0 <= rep["results"]["assd"]["naive"]["auc_mean"] <= 1.0
        assert (tmp_path / "aud" / "features_assd_naive.csv").exists()

    def test_manifest_start_time_taken_first(self, tmp_path, monkeypatch):
        from vfsynth import audit as au

        audit = {"modes": ["assd"], "shadows": 4, "repeats": 1, "feature_kinds": ["naive"],
                 "select": "nn", "train_count": 2, "test_count": 2}
        cfg_path = toy_config(tmp_path, n=24, extra={"audit": audit})
        log = clock_around(monkeypatch, au, "train_shadows_assd")
        assert main(["audit", "--config", str(cfg_path), "--out", str(tmp_path / "aud")]) == 0
        manifest = yaml.safe_load((tmp_path / "aud" / "manifest.yaml").read_text())
        assert log == ["clock", "work", "clock"]
        assert (manifest["created_utc"], manifest["completed_utc"]) == ("event-0", "event-2")

    def test_audit_with_dp(self, tmp_path):
        # sigma is calibrated for the n-1 rows of the leave-one-out world;
        # each world trains at its own sampling rate with that sigma
        cfg_path = toy_config(
            tmp_path,
            n=24,
            extra={
                "audit": {
                    "modes": ["assd"], "shadows": 4, "repeats": 1,
                    "feature_kinds": ["naive"], "select": "nn",
                    "train_count": 2, "test_count": 2,
                },
                "gan": {
                    "latent_dim": 4, "gen_hidden": [8],
                    "disc_part1_hidden": [8], "feature_dim": 4,
                    "disc_part2_hidden": [8], "server_hidden": [8],
                    "batch_size": 8, "disc_steps": 1, "epochs": 2,
                },
                "dp": {"epsilon": 10.0, "delta": 1e-3, "clip": 1.0},
            },
        )
        rc = main(["audit", "--config", str(cfg_path),
                   "--out", str(tmp_path / "aud")])
        assert rc == 0
        rep = yaml.safe_load((tmp_path / "aud" / "audit_report.yaml").read_text())
        assert rep["dp_enabled"] is True
        want = budget_report(rep["dp"]["sigma"], 8 / 23, 2, 1e-3)
        assert rep["dp"]["epsilon_external"] == want.epsilon_external
        assert rep["dp"]["epsilon_external"] <= 10.0

    def test_audit_dp_batch_larger_than_loo_world_rejected(self, tmp_path, capsys):
        cfg_path = toy_config(
            tmp_path, n=8,
            extra={"audit": {"modes": ["assd"], "shadows": 6, "target": 0},
                   "dp": {"epsilon": 10.0, "delta": 1e-3, "clip": 1.0}},
        )
        rc = main(["audit", "--config", str(cfg_path), "--out", str(tmp_path / "aud")])
        assert rc == 1
        assert "exceeds the 7 rows" in capsys.readouterr().err

    def test_select_nn_deterministic(self, tmp_path):
        cfg_path = toy_config(
            tmp_path, n=24,
            extra={"audit": {"modes": ["assd"], "shadows": 6, "repeats": 2,
                             "feature_kinds": ["naive"], "select": "nn"}},
        )
        from vfsynth.audit import find_vulnerable_nn

        cfg = load_config(cfg_path)
        ds = d.load_csv(cfg.dataset_path, cfg.schema)
        assert find_vulnerable_nn(ds) == find_vulnerable_nn(ds)

    @pytest.mark.parametrize("field,value", [
        ("rows", "40"), ("rows", True), ("rows", 0),
        ("target", "3"), ("target", 2.0), ("target", -1),
        ("synthetic_rows", 0), ("synthetic_rows", "10"),
        ("train_count", "2"), ("test_count", 1.5),
        ("shadows", "4"), ("shadows", True), ("repeats", 2.0),
    ])
    def test_malformed_integers_rejected(self, tmp_path, capsys, field, value):
        audit = {"modes": ["assd"], "shadows": 4, "repeats": 1,
                 "feature_kinds": ["naive"], "select": "nn",
                 "train_count": 2, "test_count": 2, field: value}
        cfg_path = toy_config(tmp_path, n=24, extra={"audit": audit})
        rc = main(["audit", "--config", str(cfg_path), "--out", str(tmp_path / "aud")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"audit.{field}" in err

    @pytest.mark.parametrize("audit,field", [
        ({"shadows": 4}, "audit.test_count"),  # the 70/30 split leaves 1
        ({"shadows": 6, "train_count": 3, "test_count": 1}, "audit.test_count"),
        ({"shadows": 2, "train_count": 1}, "audit.shadows"),
    ])
    def test_unrunnable_attack_split_rejected_before_training(
        self, tmp_path, capsys, monkeypatch, audit, field
    ):
        from vfsynth import fedgan as fg

        calls = []
        real_train = fg.train

        def counting_train(*args, **kwargs):
            calls.append(1)
            return real_train(*args, **kwargs)

        monkeypatch.setenv("VFSYNTH_THREADS", "1")  # count every call in-process
        monkeypatch.setattr(fg, "train", counting_train)
        audit = {"modes": ["assd"], "repeats": 1, "feature_kinds": ["naive"],
                 "select": "nn", **audit}
        gan = {"latent_dim": 4, "gen_hidden": [8], "disc_part1_hidden": [8],
               "feature_dim": 4, "disc_part2_hidden": [8], "server_hidden": [8],
               "batch_size": 8, "disc_steps": 1, "epochs": 1}
        cfg_path = toy_config(tmp_path, n=24, extra={"audit": audit, "gan": gan})
        out = tmp_path / "aud"
        assert main(["audit", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert field in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("variant", ["central", "vertigan"])
    def test_asif_with_serverless_variant_rejected_before_training(
        self, tmp_path, capsys, monkeypatch, variant
    ):
        from vfsynth import fedgan as fg

        calls = []
        real_train = fg.train

        def counting_train(*args, **kwargs):
            calls.append(1)
            return real_train(*args, **kwargs)

        monkeypatch.setenv("VFSYNTH_THREADS", "1")  # count every call in-process
        monkeypatch.setattr(fg, "train", counting_train)
        audit = {"modes": ["assd", "asif"], "shadows": 4, "repeats": 1,
                 "feature_kinds": ["naive"], "select": "nn",
                 "train_count": 2, "test_count": 2}
        split = [[0, 1, 2]] if variant == "central" else [[0, 1], [2]]
        cfg_path = toy_config(tmp_path, n=24,
                              extra={"audit": audit, "variant": variant, "split": split})
        out = tmp_path / "aud"
        assert main(["audit", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "audit.modes" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_too_few_shadows_rejected(self, tmp_path):
        cfg_path = toy_config(
            tmp_path,
            extra={"audit": {"modes": ["assd"], "shadows": 1, "select": "nn"}},
        )
        with pytest.raises(ConfigError):
            load_config(cfg_path)


class TestAccountantCommand:
    def test_report_matches_library(self, capsys):
        assert main(["accountant", "report", "--sigma", "1", "--gamma", "1",
                     "--steps", "1", "--delta", "1e-5"]) == 0
        out = capsys.readouterr().out
        assert "epsilon_external=5.30259" in out
        assert "alpha=6" in out

    def test_report_curve_csv(self, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        assert main(["accountant", "report", "--sigma", "1", "--gamma", "0.1",
                     "--steps", "10", "--delta", "1e-5",
                     "--curve", str(curve)]) == 0
        lines = curve.read_text().strip().split("\n")
        assert lines[0] == "alpha,epsilon"
        assert len(lines) == 512  # alpha grid 2..512
        rows = [line.split(",") for line in lines[1:]]
        want = pipeline_curve(1, 0.1, 10)
        assert rows == [[str(a), repr(float(e))] for a, e in zip(ALPHAS, want)]
        # the curve and the printed epsilon come from one pipeline
        eps = min(float(e) + math.log(1.0 / 1e-5) / (int(a) - 1) for a, e in rows)
        assert f"epsilon_external={eps:.6g} " in capsys.readouterr().out

    def test_calibrate_round_trip(self, capsys):
        assert main(["accountant", "calibrate", "--epsilon", "5.302585",
                     "--delta", "1e-5", "--gamma", "1", "--steps", "1"]) == 0
        out = capsys.readouterr().out
        sigma = float(out.split("sigma=")[1].split("\n")[0])
        assert 0.99 <= sigma <= 1.01

    @pytest.mark.parametrize("argv,word", [
        (["report", "--sigma", "inf", "--gamma", "0.1", "--steps", "10"], "sigma"),
        (["report", "--sigma", "1", "--gamma", "0.1", "--steps", "1" + "0" * 310], "steps"),
        (["calibrate", "--epsilon", "1", "--gamma", "0.1", "--steps", "1" + "0" * 310],
         "steps"),
        # these pass the input checks, but the curve overflows
        (["report", "--sigma", "1e-170", "--gamma", "0.04", "--steps", "10"], "sigma"),
        (["report", "--sigma", "1e-154", "--gamma", "0.04", "--steps", "10"], "sigma"),
        (["report", "--sigma", "2e-153", "--gamma", "0.04", "--steps", "10"], "sigma"),
        (["report", "--sigma", "1", "--gamma", "0.04", "--steps", "1" + "0" * 306], "steps"),
    ])
    def test_extreme_inputs_give_one_error_line(self, capsys, argv, word):
        assert main(["accountant", *argv, "--delta", "1e-5"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and word in err[0]

    def test_gamma_out_of_range(self, capsys):
        assert main(["accountant", "report", "--sigma", "1", "--gamma", "1.5",
                     "--steps", "1", "--delta", "1e-5"]) == 1
        assert "gamma" in capsys.readouterr().err
