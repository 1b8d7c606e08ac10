import dataclasses
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from vfsynth import audit as A
from vfsynth import data as d
from vfsynth import fedgan as fg
from vfsynth import nn
from vfsynth.config import RunConfig, load_config
from vfsynth.dp import DpConfig
from vfsynth.rng import RngStream


def schema_mixed():
    return d.Schema(
        (
            d.Attribute("x", "continuous"),
            d.Attribute("y", "continuous"),
            d.Attribute("k", "categorical", ("a", "b", "c")),
        )
    )


def mixed_dataset(n=30, seed=0):
    rng = RngStream(seed, "aud")
    return d.TabularDataset(
        schema_mixed(),
        (rng.normal(n) + 2, rng.normal(n) * 3, rng.integers(0, 3, size=n)),
    )


class TestNaiveFeatures:
    def test_numeric_summary(self):
        schema = d.Schema((d.Attribute("x", "continuous"),))
        ds = d.TabularDataset(schema, (np.array([0.0, 2.0]),))
        feats = A.extract_naive(ds)
        assert np.allclose(feats, [1.0, 1.0, 1.0])  # mean, median, population var

    def test_categorical_frequencies(self):
        schema = d.Schema((d.Attribute("k", "categorical", ("a", "b", "c")),))
        ds = d.TabularDataset(schema, (np.zeros(5, dtype=np.int64),))
        assert np.allclose(A.extract_naive(ds), [1.0, 0.0, 0.0])

    def test_row_permutation_invariance(self):
        ds = mixed_dataset(40, seed=1)
        perm = RngStream(2).permutation(40)
        permuted = d.subset(ds, perm)
        assert np.allclose(A.extract_naive(ds), A.extract_naive(permuted))
        assert np.allclose(A.extract_corr(ds), A.extract_corr(permuted))

    def test_fixed_length_per_schema(self):
        a = A.extract_naive(mixed_dataset(10, seed=3))
        b = A.extract_naive(mixed_dataset(25, seed=4))
        assert a.shape == b.shape == (3 + 3 + 3,)


class TestCorrFeatures:
    def test_perfectly_correlated_pair(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        assert A.corr_features_matrix(m)[0] == pytest.approx(1.0)

    def test_independent_columns_near_zero(self):
        rng = RngStream(5, "corr")
        m = rng.normal(10_000, 2)
        assert abs(A.corr_features_matrix(m)[0]) < 0.05

    def test_constant_column_contributes_zero(self):
        m = np.hstack([np.ones((10, 1)), RngStream(6).normal(10, 1)])
        assert A.corr_features_matrix(m)[0] == 0.0

    def test_upper_triangle_length(self):
        ds = mixed_dataset(20, seed=7)
        k = 2 + 3  # two numerics + 3 one-hot columns
        assert A.extract_corr(ds).shape == (k * (k - 1) // 2,)


class TestIntegerAttributes:
    def test_features_and_selection_equal_the_raw_value_oracles_bitwise(self):
        # raw numerics (integers cast to float64) and exact one-hot blocks,
        # a one-category categorical among them
        schema = d.Schema((
            d.Attribute("x", "continuous"),
            d.Attribute("i", "integer"),
            d.Attribute("k", "categorical", ("a", "b", "c")),
            d.Attribute("one", "categorical", ("u",)),
            d.Attribute("j", "integer"),
        ))
        n = 600
        rng = RngStream(41, "int")
        ds = d.TabularDataset(schema, (
            rng.normal(n) * 7 + 3, rng.integers(-40, 90, size=n), rng.integers(0, 3, size=n),
            np.zeros(n, dtype=np.int64), rng.integers(0, 5, size=n)))
        naive, blocks = [], []
        for attr, col in zip(schema.attributes, ds.columns):
            if attr.kind == "categorical":
                naive.append(np.bincount(col, minlength=len(attr.categories)) / n)
                blocks.append(np.eye(len(attr.categories))[col])
            else:
                c = col.astype(np.float64)
                naive.append(np.array([np.mean(c), np.median(c), np.var(c)]))
                blocks.append(c[:, None])
        assert A.extract_naive(ds).tobytes() == np.concatenate(naive).tobytes()
        assert (A.extract_corr(ds).tobytes()
                == A.corr_features_matrix(np.hstack(blocks)).tobytes())
        is_cat = [a.kind == "categorical" for a in schema.attributes]
        cat = np.hstack([b for b, c in zip(blocks, is_cat) if c])
        cont = np.hstack([b for b, c in zip(blocks, is_cat) if not c])
        dist = dense_nn_distances(cat, cont, 2 / 5, 3 / 5)
        assert A.find_vulnerable_nn(ds) == int(np.argmax(dist))


class TestAuc:
    def test_perfect_separation(self):
        assert A.auc(np.array([0.9, 0.1]), np.array([1, 0])) == 1.0

    def test_all_tied_scores(self):
        assert A.auc(np.full(10, 0.5), np.array([0, 1] * 5)) == 0.5

    def test_random_scores_near_half(self):
        rng = RngStream(8, "auc")
        scores = rng.uniform(10_000)
        labels = (rng.uniform(10_000) > 0.5).astype(int)
        assert abs(A.auc(scores, labels) - 0.5) < 0.02

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            A.auc(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_matches_pairwise_count_oracle(self):
        rng = RngStream(9, "auc")
        scores = np.round(rng.uniform(60), 1)  # ties likely
        labels = (rng.uniform(60) > 0.4).astype(int)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        want = wins / (len(pos) * len(neg))
        assert A.auc(scores, labels) == pytest.approx(want, abs=1e-12)


    def test_equals_pairwise_oracle_exactly_on_ties(self):
        rng = RngStream(12, "auc")
        for trial in range(20):
            n = int(rng.integers(2, 40))
            scores = rng.integers(0, 4, size=n) / 4.0  # few distinct values
            labels = np.arange(n) % 2
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
            assert A.auc(scores, labels) == wins / (len(pos) * len(neg))


class TestVulnerableOutlier:
    def test_textbook_column(self):
        schema = d.Schema((d.Attribute("x", "continuous"),))
        ds = d.TabularDataset(schema, (np.array([1.0, 2.0, 3.0, 4.0, 100.0]),))
        idx, counts, ties = A.find_vulnerable_outlier(ds)
        # Q1=2, Q3=4, T=2; 100-4=96 > 2 -> flagged
        assert idx == 4
        assert counts[4] == 1 and counts[:4].sum() == 0
        assert ties == [4]

    def test_uniform_column_no_flags(self):
        schema = d.Schema((d.Attribute("x", "continuous"),))
        ds = d.TabularDataset(schema, (np.linspace(0, 1, 20),))
        _, counts, _ = A.find_vulnerable_outlier(ds)
        assert counts.sum() == 0

    def test_duplicated_outlier_ties(self):
        schema = d.Schema((d.Attribute("x", "continuous"),))
        values = np.concatenate([np.arange(1.0, 11.0), [100.0, 100.0]])
        ds = d.TabularDataset(schema, (values,))
        idx, _, ties = A.find_vulnerable_outlier(ds)
        assert idx == 10 and ties == [10, 11]

    def test_brute_force_oracle_random(self):
        # straight-line quantile oracle with the declared interpolation
        rng = RngStream(10, "out")
        for trial in range(10):
            n = int(rng.integers(4, 60))
            cols = (rng.normal(n) * 10, rng.normal(n))
            schema = d.Schema(
                (d.Attribute("x", "continuous"), d.Attribute("y", "continuous"))
            )
            ds = d.TabularDataset(schema, cols)
            counts = np.zeros(n, dtype=int)
            for col in cols:
                s = np.sort(col)
                q1 = np.quantile(s, 0.25, method="linear")
                q3 = np.quantile(s, 0.75, method="linear")
                t = q3 - q1
                counts += ((q1 - col > t) | (col - q3 > t)).astype(int)
            want = int(np.argmax(counts))
            got, got_counts, _ = A.find_vulnerable_outlier(ds)
            assert np.array_equal(got_counts, counts)
            assert got == want


class TestVulnerableNn:
    def test_unique_record_wins(self):
        schema = d.Schema(
            (d.Attribute("x", "continuous"), d.Attribute("y", "continuous"))
        )
        cols = (
            np.array([1.0, 1.0, 1.0, -5.0]),
            np.array([2.0, 2.0, 2.0, 9.0]),
        )
        ds = d.TabularDataset(schema, cols)
        assert A.find_vulnerable_nn(ds) == 3

    def test_brute_force_oracle(self):
        rng = RngStream(11, "nn")
        for trial in range(5):
            ds = mixed_dataset(int(rng.integers(5, 40)), seed=100 + trial)
            got = A.find_vulnerable_nn(ds)

            # O(N^2) straight-line oracle
            n = ds.n_rows
            onehot = np.zeros((n, 3))
            onehot[np.arange(n), ds.columns[2]] = 1.0
            cont = np.stack([ds.columns[0], ds.columns[1]], axis=1)
            best, best_i = -np.inf, -1
            for i in range(n):
                nearest = np.inf
                for j in range(n):
                    if i == j:
                        continue
                    ch = onehot[i] @ onehot[j] / (
                        np.linalg.norm(onehot[i]) * np.linalg.norm(onehot[j])
                    )
                    cc = cont[i] @ cont[j] / (
                        np.linalg.norm(cont[i]) * np.linalg.norm(cont[j])
                    )
                    dist = 1.0 - (1 / 3) * ch - (2 / 3) * cc
                    nearest = min(nearest, dist)
                if nearest > best:
                    best, best_i = nearest, i
            assert got == best_i

    def test_wine_selection_is_pinned(self):
        # the shipped audit's target; a change here changes every audit number
        root = Path(__file__).resolve().parent.parent
        cfg = load_config(root / "configs" / "winequality-red.yaml")
        ds = d.load_csv(root / cfg.dataset_path, cfg.schema)
        assert A.find_vulnerable_nn(ds) == 480
        onehot = np.eye(6)[ds.columns[-1]]
        cont = np.stack(ds.columns[:-1], axis=1).astype(np.float64)
        got = A.nearest_neighbor_distances(onehot, cont, 1 / 12, 11 / 12)
        want = dense_nn_distances(onehot, cont, 1 / 12, 11 / 12)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.argmax(want) == 480

    @pytest.mark.parametrize("tile", [None, 1, 3, 7])
    def test_tied_mutual_pair_goes_to_the_lower_index(self, monkeypatch, tile):
        # records 4 and 13 are each other's nearest and farther from the rest
        # than any other record is from its nearest. Taken once per
        # orientation (u[i] @ u[j] and u[j] @ u[i]), the pair's cosine differs
        # in the last bit for several of these draws; its distances must not.
        n, k = 14, 11
        if tile is not None:
            monkeypatch.setattr(A, "_NN_TILE", tile)
        schema = d.Schema(tuple(d.Attribute(f"x{i}", "continuous") for i in range(k)))
        for seed in range(25):
            rng = RngStream(seed, "nntie")
            x = rng.normal(k) + 0.05 * rng.normal(n, k)
            x[4] = rng.normal(k)
            x[13] = x[4] + 0.3 * rng.normal(k)
            dist = A.nearest_neighbor_distances(np.zeros((n, 0)), x, 0.0, 1.0)
            assert dist[4] == dist[13] == dist.max()
            ds = d.TabularDataset(schema, tuple(x.T))
            assert A.find_vulnerable_nn(ds) == 4


def dense_nn_distances(cat, cont, w_cat, w_cont):
    """All n x n pairwise distances at once; the zero-vector guard included."""
    dist = np.ones((len(cat), len(cat)))
    for w, block in ((w_cat, cat), (w_cont, cont)):
        if block.shape[1] == 0:
            continue
        norms = np.linalg.norm(block, axis=1)
        zero = norms == 0.0
        unit = block / np.where(zero, 1.0, norms)[:, None]
        cos = np.where(zero[:, None] | zero[None, :], 0.0, unit @ unit.T)
        cos[np.outer(zero, zero)] = 1.0
        dist -= w * cos
    np.fill_diagonal(dist, np.inf)
    return dist.min(axis=1)


def brute_force_nn_distances(cat, cont, w_cat, w_cont):
    def cos(a, b):
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na == 0.0 and nb == 0.0:
            return 1.0
        if na == 0.0 or nb == 0.0:
            return 0.0
        return float(a @ b / (na * nb))

    n = cat.shape[0] if cat.shape[1] else cont.shape[0]
    out = np.full(n, np.inf)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            dist = 1.0
            if cat.shape[1]:
                dist -= w_cat * cos(cat[i], cat[j])
            if cont.shape[1]:
                dist -= w_cont * cos(cont[i], cont[j])
            out[i] = min(out[i], dist)
    return out


class TestSelectTarget:
    def test_select_rules_pick_their_record(self):
        ds = mixed_dataset(30, seed=5)
        assert A.select_target(ds, A.AuditConfig(select="nn")) == A.find_vulnerable_nn(ds)
        assert (A.select_target(ds, A.AuditConfig(select="outlier"))
                == A.find_vulnerable_outlier(ds)[0])

    # the selector is the module attribute at call time, which is what a
    # wrapper patched onto vfsynth.audit (as perfbench's tracer does) sees
    def test_selector_looked_up_when_called(self, monkeypatch):
        monkeypatch.setattr(A, "find_vulnerable_nn", lambda ds: 7)
        assert A.select_target(mixed_dataset(10), A.AuditConfig(select="nn")) == 7

    def test_target_checked_against_the_rows(self):
        ds = mixed_dataset(10)
        assert A.select_target(ds, A.AuditConfig(target=9)) == 9
        with pytest.raises(ValueError,
                           match=r"^audit\.target 10 is out of range for the 10 audited rows$"):
            A.select_target(ds, A.AuditConfig(target=10))


class TestNearestNeighborDistances:
    def test_matches_brute_force(self):
        rng = RngStream(7, "nn")
        cat = np.eye(4)[rng.integers(0, 4, size=30)]
        cont = rng.normal(30, 3)
        got = A.nearest_neighbor_distances(cat, cont, 0.4, 0.6)
        want = brute_force_nn_distances(cat, cont, 0.4, 0.6)
        assert np.allclose(got, want, atol=1e-12)

    def test_identical_records_have_zero_distance(self):
        cont = np.tile(np.array([[1.0, 2.0]]), (3, 1))
        dist = A.nearest_neighbor_distances(np.zeros((3, 0)), cont, 0.0, 1.0)
        assert np.allclose(dist, 0.0, atol=1e-15)

    def test_zero_vector_guard(self):
        cont = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        dist = A.nearest_neighbor_distances(np.zeros((3, 0)), cont, 0.0, 1.0)
        # two zero rows: cosine 1 with each other -> distance 0
        assert dist[0] == pytest.approx(0.0)
        # the nonzero row sees cosine 0 against both -> distance 1
        assert dist[2] == pytest.approx(1.0)

    @pytest.mark.parametrize("tile", [1, 3, 7])
    def test_blocks_match_the_dense_oracle(self, monkeypatch, tile):
        # 23 rows: no tile size divides them; zero rows in both attribute
        # blocks, at tile edges and inside tiles
        n = 23
        monkeypatch.setattr(A, "_NN_TILE", tile)
        rng = RngStream(19, "nnblocks")
        cat = np.eye(4)[rng.integers(0, 4, size=n)]
        cont = rng.normal(n, 3)
        cat[[0, 2, 3, 13, 22]] = 0.0
        cont[[2, 6, 7, 14, 20, 21]] = 0.0
        got = A.nearest_neighbor_distances(cat, cont, 0.3, 0.7)
        want = dense_nn_distances(cat, cont, 0.3, 0.7)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.allclose(want, brute_force_nn_distances(cat, cont, 0.3, 0.7), atol=1e-12)

    @pytest.mark.parametrize("cat_shape,cont_shape", [
        ((5, 2), (4, 3)),  # row counts differ
        ((5,), (5, 3)),  # not 2-D
        ((5, 2), (5, 3, 1)),
    ])
    def test_rejects_misshapen_blocks(self, cat_shape, cont_shape):
        with pytest.raises(ValueError) as info:
            A.nearest_neighbor_distances(np.ones(cat_shape), np.ones(cont_shape), 0.5, 0.5)
        assert str(cat_shape) in str(info.value) and str(cont_shape) in str(info.value)

    @staticmethod
    def _traced_peak(n):
        """tracemalloc peak of one wine-shaped call at n rows, and its input bytes."""
        rng = RngStream(3, "nnmem")
        cat = np.eye(6)[rng.integers(0, 6, size=n)]
        cont = rng.normal(n, 11)
        tracemalloc.start()
        try:
            A.nearest_neighbor_distances(cat, cont, 1 / 12, 11 / 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, cat.nbytes + cont.nbytes

    def test_memory_is_bounded_by_the_block(self):
        # one 3,000 x 3,000 float64 matrix alone is 68.7 MiB
        peak, _ = self._traced_peak(3000)
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("n", [1599, 20_000])
    def test_memory_does_not_grow_with_the_rows(self, n):
        # the unit rows copy the input once; beyond that, a few tiles
        peak, input_bytes = self._traced_peak(n)
        assert peak <= 2 * input_bytes + 4 * 8 * A._NN_TILE**2


TINY_GAN = fg.GanConfig(
    latent_dim=4,
    gen_hidden=(8,),
    disc_part1_hidden=(8,),
    feature_dim=4,
    disc_part2_hidden=(8,),
    server_hidden=(8,),
    batch_size=8,
    disc_steps=1,
    epochs=2,
)
SPLIT = d.VerticalSplit(((0, 1), (2,)))


def tiny_audit_cfg(variant=fg.VFLGAN, **audit):
    """A run of the mixed schema over ``SPLIT`` with tiny GAN settings and
    the audit section ``audit`` (6 shadows and 2 repeats unless given)."""
    return RunConfig(dataset_path="mixed.csv", schema=schema_mixed(), split=SPLIT,
                     variant=variant, seed=0, output_dir="audit", gan=TINY_GAN,
                     audit=A.AuditConfig(**{"shadows": 6, "repeats": 2, "select": "nn", **audit}))


class TestShadows:
    def test_assd_shapes_and_balance(self):
        ds = mixed_dataset(16, seed=12)
        sets = A.train_shadows(ds, 3, tiny_audit_cfg(), None, RngStream(13))["assd"]
        assert sorted(sets.features.keys()) == ["correlation", "naive"]
        for kind, x in sets.features.items():
            assert x.shape[0] == 12  # 2 worlds x 6 shadows
            assert np.isfinite(x).all()
        assert np.array_equal(np.sort(sets.labels), [0] * 6 + [1] * 6)

    def test_assd_feature_length_constant(self):
        ds = mixed_dataset(16, seed=14)
        sets = A.train_shadows(ds, 0, tiny_audit_cfg(), None, RngStream(15))["assd"]
        x = sets.features["naive"]
        assert len({row.shape for row in x}) == 1

    def test_asif_feature_width(self):
        ds = mixed_dataset(16, seed=16)
        cfg = tiny_audit_cfg(modes=("asif",), feature_kinds=("naive",))
        ensemble = A.train_shadows(ds, 1, cfg, None, RngStream(17))
        assert list(ensemble) == ["asif"]
        # per-record feature matrix has 2 * feature_dim columns; naive gives
        # 3 summaries per column
        assert ensemble["asif"].features["naive"].shape == (12, 3 * 2 * cfg.gan.feature_dim)

    def test_different_seeds_give_different_features(self):
        ds = mixed_dataset(16, seed=20)
        cfg = tiny_audit_cfg(feature_kinds=("naive",))
        sets = A.train_shadows(ds, 0, cfg, None, RngStream(21))["assd"]
        x = sets.features["naive"]
        assert not np.allclose(x[6], x[7])  # two world-1 shadows differ


BOTH_MODES = ("assd", "asif")
# one mode alone, and both: every requested set goes through one pool
MODE_SETS = pytest.mark.parametrize(
    "modes", [("assd",), ("asif",), BOTH_MODES], ids=["assd", "asif", "assd+asif"])


class TestShadowRows:
    """Each shadow row of both modes equals a straight-line replica trained
    once; the modes read the same shadows."""

    target = 4

    # under DP both worlds train with the one mechanism the audit was given
    @pytest.fixture(scope="class", params=[None, DpConfig(clip=1.0, sigma=1.0)],
                    ids=["no_dp", "dp"])
    def two_modes(self, request):
        """(ds, dp, rng, the two-mode ensemble, its replicas)."""
        ds, dp, rng = mixed_dataset(16, seed=30), request.param, RngStream(31)
        run = tiny_audit_cfg(modes=BOTH_MODES)
        ensemble = A.train_shadows(ds, self.target, run, dp, rng)
        return ds, dp, rng, ensemble, list(self._replicas(ds, run, dp, rng))

    def _replicas(self, ds, run, dp, rng):
        """(world, m, encoder, model) per row: world 0 leaves the target out."""
        worlds = (d.leave_one_out(ds, self.target), ds)
        for world in (0, 1):
            for m in range(run.audit.shadows):
                enc = d.fit_encoder(worlds[world])
                model = fg.train(run.variant, d.encode(worlds[world], enc), run.split,
                                 run.gan, dp, rng.child("shadow", world, m))
                yield world, m, enc, model

    def test_assd_rows_match_replica(self, two_modes):
        ds, _, rng, ensemble, replicas = two_modes
        sets = ensemble["assd"]
        for row, (world, m, _, model) in enumerate(replicas):
            synth = d.decode(model.sample(ds.n_rows, rng.child("synth", world, m),
                                          best=True))
            assert sets.labels[row] == world
            assert np.array_equal(sets.features["naive"][row], A.extract_naive(synth))
            assert np.array_equal(sets.features["correlation"][row], A.extract_corr(synth))

    def test_asif_rows_match_replica(self, two_modes):
        ds, _, _, ensemble, replicas = two_modes
        sets = ensemble["asif"]
        for row, (world, _, enc, model) in enumerate(replicas):
            views = fg.partition(d.encode(ds, enc), SPLIT).views
            feats = np.hstack([nn.forward(p.d1, v)[0] for p, v in zip(model.parties, views)])
            assert sets.labels[row] == world
            assert np.array_equal(sets.features["naive"][row], A.naive_features_matrix(feats))
            assert np.array_equal(sets.features["correlation"][row],
                                  A.corr_features_matrix(feats))

    @pytest.mark.parametrize("mode", BOTH_MODES)
    def test_one_mode_alone_gives_its_rows_of_two(self, two_modes, mode):
        # an ASIF-only ensemble skips the quality log, yet its shadows end
        # where the two-mode ensemble's do
        ds, dp, rng, ensemble, _ = two_modes
        alone = A.train_shadows(ds, self.target, tiny_audit_cfg(modes=(mode,)), dp, rng)
        assert list(alone) == [mode]
        assert np.array_equal(alone[mode].labels, ensemble[mode].labels)
        for kind in A.FEATURE_KINDS:
            assert np.array_equal(alone[mode].features[kind], ensemble[mode].features[kind])

    def test_two_modes_train_each_shadow_once(self, monkeypatch):
        built = []

        class Counted(fg.Trainer):
            def __init__(self, *args):
                built.append(args[-1].path)
                super().__init__(*args)

        monkeypatch.setenv("VFSYNTH_THREADS", "1")  # count every build in-process
        monkeypatch.setattr(fg, "Trainer", Counted)
        cfg = tiny_audit_cfg(modes=BOTH_MODES)
        A.train_shadows(mixed_dataset(16, seed=30), 4, cfg, None, RngStream(31))
        assert len(built) == len(set(built)) == 2 * cfg.audit.shadows

    @MODE_SETS
    def test_worker_count_does_not_change_features(self, monkeypatch, modes):
        ds, cfg = mixed_dataset(16, seed=34), tiny_audit_cfg(modes=modes)
        out = []
        for threads in ("1", "2"):
            monkeypatch.setenv("VFSYNTH_THREADS", threads)
            out.append(A.train_shadows(ds, 2, cfg, None, RngStream(35)))
        assert list(out[0]) == list(out[1]) == list(modes)
        for mode in modes:
            assert np.array_equal(out[0][mode].labels, out[1][mode].labels)
            for kind in cfg.audit.feature_kinds:
                assert np.array_equal(out[0][mode].features[kind],
                                      out[1][mode].features[kind])


class TestWorkerHandOff:
    """The pool's workers get the ensemble's inputs once, as initializer
    arguments; the work items are the (world, m) keys."""

    @MODE_SETS
    def test_inputs_reach_each_worker_once(self, monkeypatch, modes):
        import concurrent.futures

        pools = []

        class InProcessPool:
            """Runs the initializer and the mapped calls here, recording both."""

            def __init__(self, max_workers, initializer, initargs):
                self.initargs = initargs
                initializer(*initargs)
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                self.fn, self.items = fn, list(items)
                return [fn(item) for item in self.items]

        ds, cfg = mixed_dataset(16, seed=36), tiny_audit_cfg(modes=modes)
        monkeypatch.setenv("VFSYNTH_THREADS", "1")
        want = A.train_shadows(ds, 5, cfg, None, RngStream(37))

        monkeypatch.setenv("VFSYNTH_THREADS", "2")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(A, "_worker_batch", None)  # restored after the test
        got = A.train_shadows(ds, 5, cfg, None, RngStream(37))

        [pool] = pools  # one pool, and one job per shadow, whatever the modes
        assert pool.items == [(w, m) for w in (0, 1) for m in range(cfg.audit.shadows)]
        for item in pool.items:
            assert len(pickle.dumps((pool.fn, item))) <= 1024
        worlds = pool.initargs[0][0]
        assert [w.n_rows for w in worlds] == [ds.n_rows - 1, ds.n_rows]
        assert np.array_equal(worlds[0].columns[0], np.delete(ds.columns[0], 5))
        assert all(np.array_equal(a, b) for a, b in zip(worlds[1].columns, ds.columns))
        assert list(got) == list(want) == list(modes)
        for mode in modes:
            assert np.array_equal(got[mode].labels, want[mode].labels)
            for kind in cfg.audit.feature_kinds:
                assert np.array_equal(got[mode].features[kind], want[mode].features[kind])


class TestQualityLog:
    """Only ASSD reads the per-epoch FD: it publishes the best epoch's sample."""

    def _fd_calls(self, monkeypatch, cfg):
        calls = []
        real = fg.Trainer._quality_fd

        def counting(self, epoch):
            calls.append(epoch)
            return real(self, epoch)

        monkeypatch.setenv("VFSYNTH_THREADS", "1")  # count every call in-process
        monkeypatch.setattr(fg.Trainer, "_quality_fd", counting)
        A.train_shadows(mixed_dataset(16, seed=36), 5, cfg, None, RngStream(37))
        return len(calls)

    def test_assd_logs_every_epoch(self, monkeypatch):
        # once per shadow epoch, though ASIF reads the same shadows
        cfg = tiny_audit_cfg(modes=BOTH_MODES)
        want = 2 * cfg.audit.shadows * cfg.gan.epochs
        assert self._fd_calls(monkeypatch, cfg) == want

    def test_asif_skips_the_quality_log(self, monkeypatch):
        assert self._fd_calls(monkeypatch, tiny_audit_cfg(modes=("asif",))) == 0


class TestRunAttack:
    def _labeled(self, n_per=20, dim=6, gap=0.0, seed=0):
        rng = RngStream(seed, "feat")
        x0 = rng.normal(n_per, dim)
        x1 = rng.normal(n_per, dim) + gap
        feats = {"naive": np.vstack([x0, x1])}
        labels = np.array([0] * n_per + [1] * n_per)
        return A.FeatureSets(feats, labels)

    def test_shuffled_labels_near_half(self):
        sets = self._labeled(n_per=30, gap=3.0, seed=1)
        perm = RngStream(2).permutation(len(sets.labels))
        shuffled = A.FeatureSets(sets.features, sets.labels[perm])
        cfg = A.AuditConfig(shadows=30, feature_kinds=("naive",), repeats=5, select="nn")
        rep = A.run_attack(shuffled, cfg, RngStream(3))
        assert 0.3 <= rep["naive"]["auc_mean"] <= 0.7

    def test_label_leak_gives_perfect_auc(self):
        labels = np.array([0] * 10 + [1] * 10)
        sets = A.FeatureSets({"naive": labels[:, None].astype(float)}, labels)
        cfg = A.AuditConfig(shadows=10, feature_kinds=("naive",), repeats=2, select="nn")
        rep = A.run_attack(sets, cfg, RngStream(4))
        assert rep["naive"]["auc_mean"] == 1.0

    def test_deterministic(self):
        sets = self._labeled(n_per=12, gap=1.0, seed=5)
        cfg = A.AuditConfig(shadows=12, feature_kinds=("naive",), repeats=2, select="nn")
        r1 = A.run_attack(sets, cfg, RngStream(6, "det"))
        r2 = A.run_attack(sets, cfg, RngStream(6, "det"))
        assert r1 == r2

    def test_one_forest_per_kind_and_repeat(self, monkeypatch):
        # the benchmark's attack_forests check counts these calls: one forest
        # trained and scored per (feature kind, repeat), none batched
        calls = {"train_forest": 0, "predict_scores": 0}

        def counted(name):
            real = getattr(A, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(A, name, counted(name))
        naive = self._labeled(n_per=12, gap=1.0, seed=8)
        x = naive.features["naive"]
        sets = A.FeatureSets({"naive": x, "correlation": x[:, :3]}, naive.labels)
        cfg = A.AuditConfig(shadows=12, feature_kinds=("naive", "correlation"), repeats=3,
                            select="nn")
        A.run_attack(sets, cfg, RngStream(9))
        assert calls == {"train_forest": 2 * 3, "predict_scores": 2 * 3}

    def test_undersized_feature_sets_rejected(self):
        sets = self._labeled(n_per=4)
        cfg = A.AuditConfig(shadows=10, feature_kinds=("naive",), repeats=2, select="nn")
        with pytest.raises(ValueError, match="not enough shadows"):
            A.run_attack(sets, cfg, RngStream(7))


class TestStubbedEndToEnd:
    def test_world_separation_driven_by_target(self, monkeypatch):
        # trainer stubbed to echo its training data: the only difference
        # between worlds is the target record, and the adversary becomes
        # perfectly accurate
        class EchoTrainer:
            def __init__(self, variant, data, split, cfg, dp, rng):
                self.data = data

            def run_epoch(self):
                pass

            def sample(self, n, rng, best=False):
                return self.data

        monkeypatch.setattr(A.fg, "Trainer", EchoTrainer)

        ds = mixed_dataset(20, seed=22)
        # make the target clearly distinctive
        cols = list(ds.columns)
        cols[0] = cols[0].copy()
        cols[0][5] = 50.0
        ds = d.TabularDataset(ds.schema, tuple(cols))
        cfg = tiny_audit_cfg(shadows=8, feature_kinds=("naive",))
        sets = A.train_shadows(ds, 5, cfg, None, RngStream(23))["assd"]
        rep = A.run_attack(sets, cfg.audit, RngStream(24))
        assert rep["naive"]["auc_mean"] == 1.0


class TestAuditConfig:
    # the audit section alone: the shadows read the run's variant, GAN and DP
    def test_fields_are_the_audit_keys(self):
        assert [f.name for f in dataclasses.fields(A.AuditConfig)] == [
            "shadows", "repeats", "modes", "feature_kinds", "target", "select"]

    # five shadows would split 4/1, leaving the AUC one test shadow per world
    def test_shadow_minimum(self):
        with pytest.raises(ValueError, match=r"^audit\.shadows must be >= 6, got 5$"):
            A.AuditConfig(shadows=5, select="nn")

    # the paper's 140/60 protocol at 200 shadows, scaled to every count
    def test_default_split_is_70_30(self):
        for shadows, want in ((6, (4, 2)), (8, (6, 2)), (20, (14, 6)), (200, (140, 60))):
            assert A.AuditConfig(shadows=shadows, select="nn").split_counts() == want

    # a hand-built run is refused as a loaded one is (see test_cli's TestConfig)
    def test_hand_built_run_refuses_asif_without_server_critic(self):
        with pytest.raises(ValueError, match="audit.modes"):
            tiny_audit_cfg(fg.VERTIGAN, modes=("asif",), select="nn")

    def test_unknown_feature_kind(self):
        with pytest.raises(ValueError):
            A.AuditConfig(feature_kinds=("histogram",), select="nn")

    # an empty list trained every shadow for an empty report; a repeated
    # name trained and wrote the same ensemble twice
    @pytest.mark.parametrize("field,value", [
        ("modes", ()), ("modes", ("assd", "assd")), ("modes", "assd"),
        ("feature_kinds", ()), ("feature_kinds", ("naive", "correlation", "naive")),
        ("feature_kinds", "naive"),
    ], ids=["modes-empty", "modes-repeated", "modes-string",
            "kinds-empty", "kinds-repeated", "kinds-string"])
    def test_name_lists_must_be_non_empty_and_distinct(self, field, value):
        with pytest.raises(ValueError, match=rf"^audit\.{field} must be a non-empty list "
                                             "of distinct names"):
            A.AuditConfig(**{field: value, "select": "nn"})

    # with both, the select rule's record was audited and the target ignored;
    # a section with neither picked no record
    @pytest.mark.parametrize("audit", [{"target": 3, "select": "nn"}, {}],
                             ids=["both", "neither"])
    def test_exactly_one_of_target_and_select(self, audit):
        with pytest.raises(ValueError, match=r"^audit needs an explicit target or a select "
                                             r"rule: set exactly one of audit\.target and "
                                             r"audit\.select$"):
            A.AuditConfig(**audit)

    # a script that swaps the audited record on a loaded run is refused too
    def test_replaced_target_next_to_a_loaded_select_refused(self, tmp_path):
        root = Path(__file__).resolve().parent.parent
        doc = yaml.safe_load((root / "configs" / "winequality-red.yaml").read_text())
        doc["audit"] = {"shadows": 6, "select": "nn"}
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(doc))
        run = load_config(path)
        with pytest.raises(ValueError, match=r"exactly one of audit\.target and audit\.select"):
            dataclasses.replace(run.audit, target=480)


class TestThreadCount:
    def test_unset_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("VFSYNTH_THREADS", raising=False)
        assert A.thread_count() == (os.cpu_count() or 1)

    def test_positive_integer(self, monkeypatch):
        monkeypatch.setenv("VFSYNTH_THREADS", " 3 ")
        assert A.thread_count() == 3

    @pytest.mark.parametrize("raw", ["abc", "0", "-3"])
    def test_rejects_bad_value(self, monkeypatch, raw):
        monkeypatch.setenv("VFSYNTH_THREADS", raw)
        with pytest.raises(ValueError, match=f"VFSYNTH_THREADS.*'{raw}'"):
            A.thread_count()


def test_importing_the_cli_loads_no_process_pool():
    # the pool is imported where audits start it, so train and the other
    # commands never load multiprocessing
    probe = (
        "import sys, vfsynth.cli\n"
        "print([m for m in ('concurrent.futures.process', 'multiprocessing')"
        " if m in sys.modules])\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
