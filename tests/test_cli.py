import dataclasses
import math
import os
import struct
from pathlib import Path

import numpy as np
import pytest
import yaml

from vfsynth import checkpoint as ck
from vfsynth import data as d
from vfsynth import fedgan as fg
from vfsynth.dp import ALPHAS, budget_report, calibrate, pipeline_curve
from vfsynth import nn
from vfsynth.cli import main
from vfsynth.config import ConfigError, RunConfig, load_config, mechanism
from vfsynth.rng import RngStream


# the dp block of a train manifest and of an audit report
DP_RECORD_KEYS = [
    "alpha_external", "alpha_internal", "clip", "delta", "epsilon_external",
    "epsilon_internal", "epsilon_target", "gamma", "sigma", "steps",
]


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


def with_target(cfg_path, target):
    """The config at ``cfg_path`` with ``dataset.schema.target`` set, or
    removed for None."""
    doc = yaml.safe_load(cfg_path.read_text())
    doc["dataset"]["schema"].pop("target")
    if target is not None:
        doc["dataset"]["schema"]["target"] = target
    cfg_path.write_text(yaml.safe_dump(doc))
    return cfg_path


def with_setting(cfg_path, key, value):
    """The config at ``cfg_path`` with ``key``, a top-level name or
    ``section.name``, set to ``value``."""
    doc = yaml.safe_load(cfg_path.read_text())
    section, _, name = key.rpartition(".")
    (doc[section] if section else doc)[name] = value
    cfg_path.write_text(yaml.safe_dump(doc))
    return cfg_path


def set_column_a(path, value, keep=()):
    """Rewrite column ``a`` of a toy CSV to ``value``, except the rows ``keep``."""
    lines = path.read_text().splitlines()
    for i in range(1, len(lines)):
        if i - 1 not in keep:
            lines[i] = f"{value!r}," + lines[i].split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")


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

    # the four audit keys after "dp" are keys no config or benchmark run set,
    # now gone; the schema and its attributes once loaded a typo silently
    @pytest.mark.parametrize("section,key,value", [
        (None, "varient", "central"), ("dataset", "pth", "x.csv"),
        ("dp", "clp", 0.5), ("audit", "shadow", 4), ("audit", "variant", "central"),
        ("audit", "gan", {"epochs": 1}), ("audit", "dp", {"epsilon": 1.0}),
        ("audit", "rows", 200), ("audit", "synthetic_rows", 2),
        ("audit", "train_count", 4), ("audit", "test_count", 2),
        ("dataset.schema", "targett", "k"), ("attribute 'a'", "unit", "g/L"),
    ])
    def test_unknown_keys_rejected(self, tmp_path, section, key, value):
        p = toy_config(tmp_path, extra={"dp": {"epsilon": 10.0, "delta": 1e-3},
                                        "audit": {"shadows": 6, "select": "nn"}})
        doc = yaml.safe_load(p.read_text())
        schema = doc["dataset"]["schema"]
        nested = {"dataset.schema": schema, "attribute 'a'": schema["attributes"][0]}
        (doc if section is None else nested.get(section) or doc[section])[key] = value
        p.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert str(exc.value) == f"unknown {section or 'top-level'} settings: ['{key}']"

    # each was once read through str() or compared with ==: output_dir: null
    # loaded as "None", and train wrote its run into ./None; an empty
    # output_dir named the working directory
    @pytest.mark.parametrize("key,value,want", [
        ("output_dir", None, "output_dir must be a non-empty string, got None"),
        ("output_dir", ["a"], "output_dir must be a non-empty string, got ['a']"),
        ("output_dir", "", "output_dir must be a non-empty string, got ''"),
        ("dataset.path", None, "dataset.path must be a non-empty string, got None"),
        ("config_version", True, "config_version True unsupported (expected 1)"),
        ("config_version", 1.0, "config_version 1.0 unsupported (expected 1)"),
    ], ids=["output_dir-null", "output_dir-list", "output_dir-empty", "path-null",
            "version-true", "version-float"])
    def test_paths_are_strings_and_the_version_the_integer_1(self, tmp_path, key, value, want):
        with pytest.raises(ConfigError) as exc:
            load_config(with_setting(toy_config(tmp_path), key, value))
        assert str(exc.value) == want

    def test_audit_needs_target_or_select(self, tmp_path):
        p = toy_config(tmp_path, extra={"audit": {"shadows": 6}})
        with pytest.raises(ConfigError, match="target"):
            load_config(p)
        # both: the select rule's record was audited and the target ignored
        p = toy_config(tmp_path, extra={"audit": {"shadows": 6, "target": 5, "select": "nn"}})
        with pytest.raises(ConfigError, match="exactly one of audit.target and audit.select"):
            load_config(p)

    # RunConfig refuses it, so a hand-built run is refused too (see test_audit)
    @pytest.mark.parametrize("variant", ["central", "vertigan"])
    def test_asif_needs_split_critic_variant(self, tmp_path, variant):
        split = [[0, 1, 2]] if variant == "central" else [[0, 1], [2]]
        p = toy_config(tmp_path, extra={"variant": variant, "split": split, "audit": {
            "modes": ["assd", "asif"], "shadows": 6, "select": "nn"}})
        with pytest.raises(ConfigError, match="audit.modes"):
            load_config(p)

    @pytest.mark.parametrize("field,value", [
        ("modes", []), ("modes", ["assd", "assd"]), ("modes", "assd"),
        ("feature_kinds", []), ("feature_kinds", ["naive", "naive"]),
        ("feature_kinds", "naive"),
    ], ids=["modes-empty", "modes-repeated", "modes-string",
            "kinds-empty", "kinds-repeated", "kinds-string"])
    def test_audit_name_lists_must_be_non_empty_and_distinct(self, tmp_path, field, value):
        audit = {"shadows": 6, "select": "nn", field: value}
        p = toy_config(tmp_path, extra={"audit": audit})
        with pytest.raises(ConfigError, match=f"audit.{field} must be a non-empty list"):
            load_config(p)

    # only a missing or null section means the defaults: each of these once
    # loaded as the defaults (300 epochs), while gan: [1] was refused
    @pytest.mark.parametrize("value", [[], 0, False, ""], ids=["list", "zero", "false", "empty"])
    def test_falsy_gan_section_refused(self, tmp_path, capsys, value):
        p = toy_config(tmp_path)
        doc = yaml.safe_load(p.read_text())
        doc["gan"] = value
        p.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError, match="^gan must be a mapping$"):
            load_config(p)
        assert main(["train", "--config", str(p)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: gan must be a mapping"]
        assert not (tmp_path / "run").exists()

    def test_null_gan_section_means_the_defaults(self, tmp_path):
        p = toy_config(tmp_path)
        doc = yaml.safe_load(p.read_text())
        doc["gan"] = None
        p.write_text(yaml.safe_dump(doc))
        assert load_config(p).gan == fg.GanConfig()

    # a hand-built or replaced run is refused when it is made, before any
    # Trainer or audit pool job exists; only the loader once checked these
    @pytest.mark.parametrize("field,value,want", [
        ("variant", "bogus", r"^unknown variant 'bogus'"),
        ("split", d.VerticalSplit(((0,), (1,))),
         r"^vertical split covers \[0, 1\] but the schema has 3 attributes$"),
    ], ids=["variant", "split"])
    def test_run_checks_variant_and_split_when_made(self, tmp_path, field, value, want):
        run = load_config(toy_config(tmp_path))
        settings = {f.name: getattr(run, f.name) for f in dataclasses.fields(run)}
        with pytest.raises(ValueError, match=want):
            RunConfig(**{**settings, field: value})
        with pytest.raises(ValueError, match=want):
            dataclasses.replace(run, **{field: value})


class TestMechanism:
    def test_no_dp_section_no_mechanism(self, tmp_path):
        assert mechanism(load_config(toy_config(tmp_path)), 32) == (None, None)

    # gamma is the batch over the rows counted, the steps epochs x disc_steps
    def test_calibrates_for_the_rows_counted(self, tmp_path):
        dp_doc = {"epsilon": 10.0, "delta": 1e-3, "clip": 0.5}
        run = load_config(toy_config(tmp_path, extra={"dp": dp_doc}))
        dp, record = mechanism(run, 32)
        gamma, steps = 8 / 32, 3 * 2
        assert dp.clip == 0.5 and dp.sigma == calibrate(10.0, 1e-3, gamma, steps)
        report = budget_report(dp.sigma, gamma, steps, 1e-3)
        assert record == {"clip": 0.5, "epsilon_target": 10.0, **dataclasses.asdict(report)}
        assert sorted(record) == DP_RECORD_KEYS

    @pytest.mark.parametrize("dp", [None, {"epsilon": 10.0, "delta": 1e-3, "clip": 1.0}],
                             ids=["no_dp", "dp"])
    def test_batch_checked_against_the_rows_counted(self, tmp_path, dp):
        run = load_config(toy_config(tmp_path, extra=None if dp is None else {"dp": dp}))
        with pytest.raises(d.DataError) as exc:
            mechanism(run, 7)
        assert str(exc.value) == f"batch size 8 exceeds the 7 rows of {run.dataset_path}"
        with pytest.raises(d.DataError) as exc:
            mechanism(run, 7, "the leave-one-out world")
        assert str(exc.value) == "batch size 8 exceeds the 7 rows of the leave-one-out world"
        assert (mechanism(run, 8)[0] is None) == (dp is None)  # a batch of every row


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
        assert log[0] == "epoch,fd,loss_d1,loss_d2,loss_ds,loss_g"
        manifest = yaml.safe_load((run / "manifest.yaml").read_text())
        assert manifest["status"] == "completed"
        assert sorted(p.name for p in run.iterdir()) == [
            "checkpoints", "config.yaml", "encoder.yaml", "logs", "manifest.yaml"]
        # every inventoried digest verifies
        import hashlib

        for rel, want in manifest["inventory"].items():
            got = hashlib.sha256((run / rel).read_bytes()).hexdigest()
            assert got == want

    @pytest.mark.parametrize("field,value", [
        ("epochs", "3"), ("batch_size", 2.5), ("latent_dim", True),
        ("gen_hidden", 64), ("server_hidden", [8, 0]), ("gumbel_temperature", "1e-4"),
        ("gumbel_temperature", False), ("gumbel_temperature", float("nan")),
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

    # the WGAN-GP penalty weight and learning rates are constants, and the
    # server loss is not weighted: a config that still sets one is refused
    @pytest.mark.parametrize("field", ["lambda_gp", "lambda_server", "lambda_gen_server",
                                       "eta_g", "eta_d", "eta_server"])
    def test_removed_gan_setting_refused(self, tmp_path, capsys, field):
        cfg_path = toy_config(tmp_path)
        doc = yaml.safe_load(cfg_path.read_text())
        doc["gan"][field] = 1.0e-4
        cfg_path.write_text(yaml.safe_dump(doc))
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: unknown gan settings: [{field!r}]\n"
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

    @pytest.mark.parametrize("field,value,bound", [
        ("epsilon", 0.0, "> 0"), ("epsilon", -1.0, "> 0"), ("clip", 0.0, "> 0"),
        ("delta", 0.0, "(0, 1)"), ("delta", 1.0, "(0, 1)"),
    ])
    def test_out_of_range_dp_setting_rejected(self, tmp_path, capsys, field, value, bound):
        dp = {"epsilon": 10.0, "delta": 1e-3, "clip": 1.0, field: value}
        cfg_path = toy_config(tmp_path, extra={"dp": dp})
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: dp.{field} must")
        assert bound in err[0] and repr(value) in err[0]
        assert not (tmp_path / "run").exists()

    def test_dp_section_needs_epsilon_and_delta(self, tmp_path, capsys):
        cfg_path = toy_config(tmp_path, extra={"dp": {"delta": 1e-3}})
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert "missing 'epsilon' in dp" in capsys.readouterr().err

    # a float, string or bool index was once read through int() and accepted
    @pytest.mark.parametrize("split", [[[0, 1.7], [2]], [["0", 1], [2]], [[0, True], [2]],
                                       3, [3]])
    def test_malformed_split_rejected(self, tmp_path, capsys, split):
        cfg_path = toy_config(tmp_path, extra={"split": split})
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: split")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("attribute,value,key", [
        (None, 5, "dataset.schema.attributes"),
        (2, 5, "attribute 'k': categories"),
    ])
    def test_malformed_schema_rejected(self, tmp_path, capsys, attribute, value, key):
        cfg_path = toy_config(tmp_path)
        doc = yaml.safe_load(cfg_path.read_text())
        schema = doc["dataset"]["schema"]
        if attribute is None:
            schema["attributes"] = value
        else:
            schema["attributes"][attribute]["categories"] = value
        cfg_path.write_text(yaml.safe_dump(doc))
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key} must be a list")

    @pytest.mark.parametrize("seed", [1.5, True, "1", -1, 2**64])
    def test_bad_seed_rejected(self, tmp_path, capsys, seed):
        cfg_path = toy_config(tmp_path, seed=seed)
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert "seed must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("dp", [None, {"epsilon": 10.0, "delta": 1e-3, "clip": 1.0}],
                             ids=["no_dp", "dp"])
    def test_batch_larger_than_dataset_rejected(self, tmp_path, capsys, dp):
        # 6 rows, batch 8: one error line before the run directory exists,
        # so a rerun with a fixed config can use the same --out
        cfg_path = toy_config(tmp_path, n=6, extra=None if dp is None else {"dp": dp})
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "batch size 8 exceeds the 6 rows" in err
        assert not (tmp_path / "run").exists()

    # a run that would train something other than what it names, or nothing
    @pytest.mark.parametrize("key,value", [
        ("variant", "bogus"), ("split", [[0], [1]]), ("gan.epochs", 0),
    ], ids=["variant", "split", "epochs-0"])
    def test_invalid_run_refused_before_the_run_directory(self, tmp_path, capsys, key, value):
        cfg_path = with_setting(toy_config(tmp_path), key, value)
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
        assert not (tmp_path / "run").exists()

    def test_null_output_dir_makes_no_run_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg_path = toy_config(tmp_path, extra={"output_dir": None})
        assert main(["train", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: output_dir must be a non-empty string, got None"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml", "toy.csv"]

    def test_refuses_nonempty_output(self, tmp_path):
        cfg_path = toy_config(tmp_path)
        run = tmp_path / "run"
        run.mkdir()
        (run / "junk").write_text("x")
        assert main(["train", "--config", str(cfg_path)]) == 1
        # refused before anything is written, the manifest included
        assert [p.name for p in run.iterdir()] == ["junk"]

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
        assert sorted(dp) == DP_RECORD_KEYS
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

    def test_interrupted_run_marked(self, tmp_path, monkeypatch):
        # an interrupt is no Exception, but it still leaves a failed manifest
        cfg_path = toy_config(tmp_path)

        def interrupt(*a, **k):
            raise KeyboardInterrupt

        monkeypatch.setattr("vfsynth.cli.fg.train", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["train", "--config", str(cfg_path)])
        run = tmp_path / "run"
        manifest = yaml.safe_load((run / "manifest.yaml").read_text())
        assert (manifest["status"], manifest["error"]) == ("failed", "KeyboardInterrupt")
        assert sorted(manifest["inventory"]) == ["config.yaml"]
        assert not (run / "manifest.yaml.tmp").exists()

    def test_manifest_reads_running_during_training(self, tmp_path, monkeypatch, capsys):
        # a run killed mid-training says what it is, and generate refuses it
        cfg_path = toy_config(tmp_path)
        run = tmp_path / "run"
        real_train, seen = fg.train, []

        def observed_train(*args):
            seen.append(yaml.safe_load((run / "manifest.yaml").read_text())["status"])
            seen.append(main(["generate", "--run", str(run), "--n", "5", "--seed", "1",
                              "--out", str(tmp_path / "s.csv")]))
            return real_train(*args)

        monkeypatch.setattr("vfsynth.cli.fg.train", observed_train)
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert seen == ["running", 1]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "did not complete (status: running)" in err[0]
        assert not (tmp_path / "s.csv").exists()
        assert yaml.safe_load((run / "manifest.yaml").read_text())["status"] == "completed"


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
        trainer = fg.train(variant, d.encode(ds, d.fit_encoder(ds)), cfg.split, cfg.gan,
                           None, RngStream(cfg.seed, "train"))
        want = tmp_path / "want.csv"
        d.decode(trainer.sample(20, RngStream(9, "generate"), best=True)).to_csv(want)
        assert out.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("existing", ["run-config", "unrelated"])
    def test_existing_output_refused_and_left_untouched(self, tmp_path, capsys, existing):
        assert main(["train", "--config", str(toy_config(tmp_path))]) == 0
        capsys.readouterr()
        run = tmp_path / "run"
        out = run / "config.yaml" if existing == "run-config" else tmp_path / "kept.csv"
        if existing == "unrelated":
            out.write_text("kept\n")
        before = out.read_bytes()
        assert main(["generate", "--run", str(run), "--n", "5", "--seed", "1",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --out") and str(out) in err[0]
        assert out.read_bytes() == before
        # the run it would have overwritten still generates
        assert main(["generate", "--run", str(run), "--n", "5", "--seed", "1",
                     "--out", str(tmp_path / "s.csv")]) == 0

    def test_unwritable_output_gives_one_error_line(self, tmp_path, capsys):
        cfg_path = toy_config(tmp_path)
        assert main(["train", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        out = tmp_path / "missing" / "dir" / "s.csv"
        assert main(["generate", "--run", str(tmp_path / "run"), "--n", "5",
                     "--seed", "9", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "s.csv" in err[0]

    def test_zero_rows_header_only(self, tmp_path):
        cfg_path = toy_config(tmp_path)
        main(["train", "--config", str(cfg_path)])
        out = tmp_path / "empty.csv"
        assert main(["generate", "--run", str(tmp_path / "run"), "--n", "0",
                     "--seed", "9", "--out", str(out)]) == 0
        assert out.read_text().strip() == "a,b,k"

    def test_negative_rows_gives_one_error_line(self, tmp_path, capsys):
        cfg_path = toy_config(tmp_path)
        assert main(["train", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        out = tmp_path / "neg.csv"
        assert main(["generate", "--run", str(tmp_path / "run"), "--n", "-1",
                     "--seed", "9", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --n") and "-1" in err[0]
        assert not out.exists()

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

    def test_best_refused_without_a_best_epoch(self, tmp_path, capsys, monkeypatch):
        # no epoch logs a finite FD, so best.ckpt holds the final generators
        monkeypatch.setattr(fg.Trainer, "_quality_fd", lambda self, epoch: math.nan)
        cfg_path = toy_config(tmp_path, extra={"gan": {
            "latent_dim": 4, "gen_hidden": [8], "disc_part1_hidden": [8], "feature_dim": 4,
            "disc_part2_hidden": [8], "server_hidden": [8], "batch_size": 8, "epochs": 1}})
        assert main(["train", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        run, out = tmp_path / "run", tmp_path / "s.csv"
        assert main(["generate", "--run", str(run), "--best", "--n", "5", "--seed", "1",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "best_epoch: -1" in err[0]
        assert not out.exists()
        assert main(["generate", "--run", str(run), "--n", "5", "--seed", "1",
                     "--out", str(out)]) == 0

    @pytest.mark.parametrize("damage", ["empty", "truncated", "list"])
    def test_bad_manifest_gives_one_error_line(self, tmp_path, capsys, damage):
        assert main(["train", "--config", str(toy_config(tmp_path))]) == 0
        capsys.readouterr()
        manifest = tmp_path / "run" / "manifest.yaml"
        text = manifest.read_text()
        cut = text.index("created_utc: '") + len("created_utc: '") + 4  # inside a quote
        manifest.write_text({"empty": "", "truncated": text[:cut],
                             "list": "- config.yaml\n- encoder.yaml\n"}[damage])
        out = tmp_path / "s.csv"
        assert main(["generate", "--run", str(tmp_path / "run"), "--n", "5",
                     "--seed", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "manifest.yaml" in err[0]
        assert not out.exists()


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
        assert lines[-2:] == [f"FD,{float(rep['frechet_distance'])!r},",
                              f"TOTAL_DIFFERENCE,{float(rep['total_difference'])!r},"]

    # tables of different sizes take utility_fourway's other path: the cross
    # regimes train on the whole source table
    def test_unequal_sizes_rerun_byte_identical(self, tmp_path, monkeypatch):
        from vfsynth import metrics

        clock_around(monkeypatch, metrics, "utility_fourway", trees=2)
        cfg_path = toy_config(tmp_path, n=120)
        synth = tmp_path / "synth.csv"
        write_toy_csv(synth, n=60, seed=1)
        outs = [tmp_path / "ev1", tmp_path / "ev2"]
        for out in outs:
            assert main(["eval", "--real", load_config(cfg_path).dataset_path,
                         "--synth", str(synth), "--config", str(cfg_path),
                         "--seed", "3", "--out", str(out)]) == 0
        for name in ("report.yaml", "metrics.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

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

    def test_non_empty_out_fails_before_the_evaluation(self, tmp_path, capsys, monkeypatch):
        from vfsynth import metrics

        def never(*args, **kwargs):
            pytest.fail("utility_fourway ran before --out was checked")

        monkeypatch.setattr(metrics, "utility_fourway", never)
        cfg_path = toy_config(tmp_path, n=40)
        cfg = load_config(cfg_path)
        out = tmp_path / "ev"
        out.mkdir()
        (out / "keep.txt").write_text("kept\n")
        rc = main(["eval", "--real", cfg.dataset_path, "--synth", cfg.dataset_path,
                   "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "not empty" in err[0]
        assert [f.name for f in out.iterdir()] == ["keep.txt"]
        assert (out / "keep.txt").read_text() == "kept\n"

    # 3 rows leave 7 of the 10 test folds empty and the metrics nan; a
    # header-only table failed only after --out was made
    @pytest.mark.parametrize("side", ["--real", "--synth"])
    @pytest.mark.parametrize("rows", [3, 0], ids=["3-rows", "header-only"])
    def test_fewer_rows_than_folds_refused_before_out(self, tmp_path, capsys, side, rows):
        cfg_path = toy_config(tmp_path, n=40)
        full = load_config(cfg_path).dataset_path
        short = tmp_path / "short.csv"
        with open(full, encoding="utf-8") as f:
            short.write_text("".join(f.readlines()[:rows + 1]))
        tables = {"--real": full, "--synth": full, side: str(short)}
        out = tmp_path / "ev"
        assert main(["eval", *(a for flag, path in tables.items() for a in (flag, path)),
                     "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {side} {short} has {rows} rows; the four-way evaluation "
                       "needs at least 10, one per fold"]
        assert not out.exists()

    # a one-class target failed only after --out was made, leaving a failed
    # manifest: no cross-validation fold of it can train a classifier
    @pytest.mark.parametrize("side", ["real", "synth"])
    def test_single_class_target_refused_before_out(self, tmp_path, capsys, side):
        root = Path(__file__).resolve().parent.parent
        with open(root / "data" / "winequality-red.csv", encoding="utf-8") as f:
            lines = f.readlines()[:201]
        two = tmp_path / "wine200.csv"
        two.write_text("".join(lines))
        one = tmp_path / "wine200-q5.csv"
        one.write_text("".join([lines[0], *(r.rsplit(",", 1)[0] + ",5\n" for r in lines[1:])]))
        tables = {"--real": str(two), "--synth": str(two), f"--{side}": str(one)}
        out = tmp_path / "ev"
        assert main(["eval", *(a for flag, path in tables.items() for a in (flag, path)),
                     "--config", str(root / "configs" / "winequality-red.yaml"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: --{side} {one} holds the one 'quality' class '5'; "
                       "the four-way evaluation needs at least two"]
        assert not out.exists()

    # the real table's encoder is fitted before --out is made
    def test_constant_column_refused_before_out(self, tmp_path, capsys):
        cfg_path = toy_config(tmp_path, n=40)
        full = Path(load_config(cfg_path).dataset_path)
        flat = tmp_path / "flat.csv"
        flat.write_text(full.read_text())
        set_column_a(flat, 7.0)
        out = tmp_path / "ev"
        assert main(["eval", "--real", str(flat), "--synth", str(full),
                     "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: attribute 'a' is constant; cannot standardize"]
        assert not out.exists()

    # dataset.schema.target is the one source of the evaluated target
    def test_missing_target_named(self, tmp_path, capsys):
        cfg_path = with_target(toy_config(tmp_path), None)
        cfg = load_config(cfg_path)
        rc = main([
            "eval", "--real", cfg.dataset_path, "--synth", cfg.dataset_path,
            "--config", str(cfg_path),
            "--out", str(tmp_path / "ev2"),
        ])
        assert rc == 1
        assert "dataset.schema.target" in capsys.readouterr().err

    def test_numeric_target_rejected_before_any_input_is_read(self, tmp_path, capsys):
        # the CSVs do not exist, so the one error line is the target's
        missing, out = str(tmp_path / "missing.csv"), tmp_path / "ev"
        assert main(["eval", "--real", missing, "--synth", missing,
                     "--config", str(with_target(toy_config(tmp_path), "a")),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: target attribute 'a' must be categorical"]
        assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "eval"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_out_of_range_seed_rejected_before_any_input_is_read(tmp_path, capsys, command, seed):
    # none of the inputs exists, so the one error line is the seed's
    missing, out = str(tmp_path / "missing"), tmp_path / "out"
    inputs = {"generate": ["--run", missing, "--n", "5"],
              "eval": ["--real", missing, "--synth", missing, "--config", missing]}
    assert main([command, *inputs[command], "--seed", seed, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --seed") and seed in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval", "audit"])
def test_empty_out_refused_before_anything_is_written(tmp_path, capsys, monkeypatch, command):
    # an empty --out once wrote the run into the working directory, or for
    # audit fell back to the config's output_dir
    audit = {"modes": ["assd"], "shadows": 6, "repeats": 1, "feature_kinds": ["naive"],
             "select": "nn"}
    cfg_path = toy_config(tmp_path, n=24, extra={"audit": audit})
    csv = load_config(cfg_path).dataset_path
    inputs = {"train": [], "eval": ["--real", csv, "--synth", csv], "audit": []}
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main([command, "--config", str(cfg_path), *inputs[command], "--out", ""]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        "error: argument --out: must be a non-empty path, got ''"]
    assert list(cwd.iterdir()) == [] and not (tmp_path / "run").exists()


class TestAuditCommand:
    def test_audit_end_to_end_small(self, tmp_path):
        cfg_path = toy_config(
            tmp_path,
            n=24,
            extra={
                "audit": {
                    "modes": ["assd"],
                    "shadows": 6,
                    "repeats": 2,
                    "feature_kinds": ["naive"],
                    "select": "nn",
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

        audit = {"modes": ["assd"], "shadows": 6, "repeats": 1, "feature_kinds": ["naive"],
                 "select": "nn"}
        cfg_path = toy_config(tmp_path, n=24, extra={"audit": audit})
        log = clock_around(monkeypatch, au, "train_shadows")
        assert main(["audit", "--config", str(cfg_path), "--out", str(tmp_path / "aud")]) == 0
        manifest = yaml.safe_load((tmp_path / "aud" / "manifest.yaml").read_text())
        assert log == ["clock", "work", "clock"]
        assert (manifest["created_utc"], manifest["completed_utc"]) == ("event-0", "event-2")

    def test_audit_with_dp(self, tmp_path):
        # one sigma, calibrated for the n-1 rows of the leave-one-out world,
        # for both worlds; the report carries the train manifest's dp record
        cfg_path = toy_config(
            tmp_path,
            n=24,
            extra={
                "audit": {
                    "modes": ["assd"], "shadows": 6, "repeats": 1,
                    "feature_kinds": ["naive"], "select": "nn",
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
        dp = rep["dp"]
        assert sorted(dp) == DP_RECORD_KEYS
        # 24 rows, so the leave-one-out world has 23; 2 epochs x 1 critic step
        sigma = calibrate(10.0, 1e-3, 8 / 23, 2)
        want = budget_report(sigma, 8 / 23, 2, 1e-3)
        assert (dp["clip"], dp["epsilon_target"]) == (1.0, 10.0)
        assert (dp["sigma"], dp["gamma"], dp["steps"], dp["delta"]) == (sigma, 8 / 23, 2, 1e-3)
        assert (dp["epsilon_external"], dp["alpha_external"]) == (
            want.epsilon_external, want.alpha_external)
        assert (dp["epsilon_internal"], dp["alpha_internal"]) == (
            want.epsilon_internal, want.alpha_internal)
        assert dp["epsilon_external"] <= 10.0

    # the mechanism reaches every shadow: one call per party per critic step
    @pytest.mark.parametrize("dp", [None, {"epsilon": 10.0, "delta": 1e-3, "clip": 1.0}],
                             ids=["no_dp", "dp"])
    def test_audit_shadows_train_with_the_reported_mechanism(self, tmp_path, monkeypatch, dp):
        sigmas = []
        real = fg.apply_mechanism

        def spy(net, grad, sigma, clip, rng):
            sigmas.append(sigma)
            real(net, grad, sigma, clip, rng)

        monkeypatch.setenv("VFSYNTH_THREADS", "1")  # count every call in-process
        monkeypatch.setattr(fg, "apply_mechanism", spy)
        extra = {"audit": {"shadows": 6, "repeats": 1, "feature_kinds": ["naive"],
                           "select": "nn"}}
        if dp is not None:
            extra["dp"] = dp
        cfg_path = toy_config(tmp_path, n=24, extra=extra)
        assert main(["audit", "--config", str(cfg_path), "--out", str(tmp_path / "aud")]) == 0
        rep = yaml.safe_load((tmp_path / "aud" / "audit_report.yaml").read_text())
        cfg = load_config(cfg_path)
        if dp is None:
            assert sigmas == [] and "dp" not in rep
        else:
            calls = (2 * cfg.audit.shadows * cfg.gan.epochs * cfg.gan.disc_steps
                     * len(cfg.split.parties))
            assert sigmas == [rep["dp"]["sigma"]] * calls

    @pytest.mark.parametrize("dp", [None, {"epsilon": 10.0, "delta": 1e-3, "clip": 1.0}],
                             ids=["no_dp", "dp"])
    def test_audit_dp_batch_larger_than_loo_world_rejected(self, tmp_path, capsys, dp):
        extra = {"audit": {"modes": ["assd"], "shadows": 6, "target": 0}}
        if dp is not None:
            extra["dp"] = dp
        cfg_path = toy_config(tmp_path, n=8, extra=extra)
        out = tmp_path / "aud"
        assert main(["audit", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "exceeds the 7 rows of the leave-one-out world" in err
        assert not out.exists()

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
        ("target", "3"), ("target", 2.0), ("target", -1),
        ("shadows", "4"), ("shadows", True), ("repeats", 2.0),
    ])
    def test_malformed_integers_rejected(self, tmp_path, capsys, field, value):
        audit = {"modes": ["assd"], "shadows": 6, "repeats": 1,
                 "feature_kinds": ["naive"], "select": "nn", field: value}
        cfg_path = toy_config(tmp_path, n=24, extra={"audit": audit})
        rc = main(["audit", "--config", str(cfg_path), "--out", str(tmp_path / "aud")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"audit.{field}" in err

    # the 70/30 split leaves one test shadow per world at 4 and 5 shadows
    @pytest.mark.parametrize("audit,field", [
        ({"shadows": 4}, "audit.shadows"),
        ({"shadows": 5}, "audit.shadows"),
        ({"shadows": 2}, "audit.shadows"),
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
        audit = {"modes": ["assd", "asif"], "shadows": 6, "repeats": 1,
                 "feature_kinds": ["naive"], "select": "nn"}
        split = [[0, 1, 2]] if variant == "central" else [[0, 1], [2]]
        cfg_path = toy_config(tmp_path, n=24,
                              extra={"audit": audit, "variant": variant, "split": split})
        out = tmp_path / "aud"
        assert main(["audit", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "audit.modes" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    # one past the last row, far past it, and past the rows of a 10-row table
    @pytest.mark.parametrize("audit,want,n", [
        ({"target": 24}, "audit.target 24 is out of range for the 24 audited rows", 24),
        ({"target": 99999}, "audit.target 99999 is out of range for the 24 audited rows", 24),
        ({"target": 15}, "audit.target 15 is out of range for the 10 audited rows", 10),
    ])
    def test_out_of_range_target_rejected_before_the_run_directory(
        self, tmp_path, capsys, audit, want, n
    ):
        audit = {"modes": ["assd"], "shadows": 6, "repeats": 1,
                 "feature_kinds": ["naive"], **audit}
        cfg_path = toy_config(tmp_path, n=n, extra={"audit": audit})
        out = tmp_path / "aud"
        assert main(["audit", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {want}"]
        assert not out.exists()

    # the leave-one-out world can have a constant column where the full
    # table has none; its encoder is fitted before the run directory is made
    @pytest.mark.parametrize("keep", [(), (5,)], ids=["constant", "constant-without-target"])
    def test_constant_column_rejected_before_the_run_directory(self, tmp_path, capsys, keep):
        audit = {"modes": ["assd"], "shadows": 6, "repeats": 1, "feature_kinds": ["naive"],
                 "target": 5}
        cfg_path = toy_config(tmp_path, n=24, extra={"audit": audit})
        set_column_a(Path(load_config(cfg_path).dataset_path), 7.0, keep)
        out = tmp_path / "aud"
        assert main(["audit", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: attribute 'a' is constant; cannot standardize"]
        assert not out.exists()

    def test_bad_thread_count_rejected_before_the_output_directory(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("VFSYNTH_THREADS", "abc")
        audit = {"modes": ["assd"], "shadows": 6, "repeats": 1, "feature_kinds": ["naive"],
                 "select": "nn"}
        cfg_path = toy_config(tmp_path, n=24, extra={"audit": audit})
        out = tmp_path / "aud"
        assert main(["audit", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: VFSYNTH_THREADS")
        assert not out.exists()

    def test_failed_audit_marked(self, tmp_path, capsys, monkeypatch):
        # a shadow job diverges: both modes read that one ensemble, so
        # neither has features and no CSV is written
        from vfsynth import audit as au

        def boom(batch, key):
            raise fg.TrainingDiverged("non-finite loss at epoch 1, role d1")

        monkeypatch.setenv("VFSYNTH_THREADS", "1")
        monkeypatch.setattr(au, "_shadow_job", boom)
        audit = {"modes": ["assd", "asif"], "shadows": 6, "repeats": 1,
                 "feature_kinds": ["naive"], "select": "nn"}
        cfg_path = toy_config(tmp_path, n=24, extra={"audit": audit})
        out = tmp_path / "aud"
        assert main(["audit", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "non-finite" in err[0]
        manifest = yaml.safe_load((out / "manifest.yaml").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == "non-finite loss at epoch 1, role d1"
        assert manifest["inventory"] == {}
        assert not (out / "audit_report.yaml").exists()

    # each is refused by the loader, before any shadow trains
    @pytest.mark.parametrize("audit,want", [
        ({"feature_kinds": []}, "audit.feature_kinds must be a non-empty list"),
        ({"target": 5}, "exactly one of audit.target and audit.select"),
        ({"rows": 200}, "unknown audit settings: ['rows']"),
    ], ids=["kinds-empty", "target-and-select", "removed-rows"])
    def test_bad_audit_section_refused_before_the_output_directory(
        self, tmp_path, capsys, audit, want
    ):
        cfg_path = toy_config(tmp_path, n=24,
                              extra={"audit": {"shadows": 6, "select": "nn", **audit}})
        out = tmp_path / "aud"
        assert main(["audit", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and want in err[0]
        assert not out.exists()

    def test_refuses_nonempty_output(self, tmp_path, capsys):
        audit = {"modes": ["assd"], "shadows": 6, "repeats": 1, "feature_kinds": ["naive"],
                 "select": "nn"}
        cfg_path = toy_config(tmp_path, n=24, extra={"audit": audit})
        out = tmp_path / "aud"
        out.mkdir()
        (out / "junk").write_text("x")
        assert main(["audit", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "not empty" in err[0]
        assert [p.name for p in out.iterdir()] == ["junk"]

    def test_too_few_shadows_rejected(self, tmp_path):
        cfg_path = toy_config(
            tmp_path,
            extra={"audit": {"modes": ["assd"], "shadows": 5, "select": "nn"}},
        )
        with pytest.raises(ConfigError) as exc:
            load_config(cfg_path)
        assert str(exc.value) == "audit.shadows must be >= 6, got 5"


# each exits 1 with one line, as a failing command does; --help still exits 0
@pytest.mark.parametrize("argv,word", [
    (["train", "--config", "c.yaml", "--bogus"], "unrecognized arguments: --bogus"),
    (["generate", "--run", "r", "--n", "abc", "--seed", "1", "--out", "s.csv"],
     "invalid int value: 'abc'"),
    (["audit", "--out", "aud"], "required: --config"),
    ([], "required: command"),
    # the config is the one source of the audited record and of the seed
    (["audit", "--config", "c.yaml", "--target", "3", "--out", "aud"],
     "unrecognized arguments: --target 3"),
    (["train", "--config", "c.yaml", "--seed", "3"], "unrecognized arguments: --seed 3"),
    # an empty path flag names no file
    (["train", "--config", ""], "argument --config: must be a non-empty path"),
    (["generate", "--run", "", "--n", "5", "--seed", "1", "--out", "s.csv"], "argument --run"),
    (["eval", "--real", "", "--synth", "s.csv", "--config", "c.yaml", "--out", "ev"],
     "argument --real"),
    (["eval", "--real", "r.csv", "--synth", "", "--config", "c.yaml", "--out", "ev"],
     "argument --synth"),
    # refused before the run, which does not exist, is read
    (["generate", "--run", "r", "--n", "5", "--seed", "1", "--out", ""], "argument --out"),
    # refused before the report is printed
    (["accountant", "report", "--sigma", "1", "--gamma", "0.1", "--steps", "10",
      "--delta", "1e-5", "--curve", ""], "argument --curve: must be a non-empty path, got ''"),
], ids=["unknown-flag", "bad-int", "missing-flag", "no-command", "audit-target",
        "train-seed", "empty-config", "empty-run", "empty-real", "empty-synth",
        "generate-empty-out", "empty-curve"])
def test_malformed_arguments_give_one_error_line(capsys, argv, word):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: ") and word in err


def help_flags(capsys, command):
    """The flags ``command --help`` lists; it must exit 0."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    return {w.split("=")[0] for w in capsys.readouterr().out.split() if w.startswith("--")}


def test_help_exits_zero_and_train_takes_config_and_out(capsys):
    assert help_flags(capsys, "train") == {"--help", "--config", "--out"}


def test_audit_takes_config_and_out(capsys):
    assert help_flags(capsys, "audit") == {"--help", "--config", "--out"}


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

    def test_unwritable_curve_gives_one_error_line(self, tmp_path, capsys):
        curve = tmp_path / "missing" / "dir" / "c.csv"
        assert main(["accountant", "report", "--sigma", "1", "--gamma", "0.1",
                     "--steps", "10", "--delta", "1e-5", "--curve", str(curve)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "c.csv" in err[0]

    def test_existing_curve_refused_untouched(self, tmp_path, capsys):
        curve = tmp_path / "keep.txt"
        curve.write_text("keep\n")
        assert main(["accountant", "report", "--sigma", "1", "--gamma", "0.1",
                     "--steps", "10", "--delta", "1e-5", "--curve", str(curve)]) == 1
        out, err = capsys.readouterr()
        assert out == ""  # refused before the report is computed
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--curve" in err[0]
        assert curve.read_text() == "keep\n"

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
        # the accountant's own range check names gamma, for either command
        for argv in (["report", "--sigma", "1"], ["calibrate", "--epsilon", "1"]):
            for gamma in ("1.5", "-0.1", "nan"):
                assert main(["accountant", *argv, "--gamma", gamma,
                             "--steps", "1", "--delta", "1e-5"]) == 1
                err = capsys.readouterr().err.splitlines()
                assert len(err) == 1 and err[0].startswith("error:") and "gamma" in err[0]
