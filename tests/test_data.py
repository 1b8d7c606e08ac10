import math
import os

import numpy as np
import pytest

from vfsynth import data as d
from vfsynth import fedgan as fg
from vfsynth.rng import RngStream

WINE_PATH = os.path.join(os.path.dirname(__file__), "..", "data", "winequality-red.csv")

WINE_CONTINUOUS = [
    "fixed acidity", "volatile acidity", "citric acid", "residual sugar",
    "chlorides", "free sulfur dioxide", "total sulfur dioxide", "density",
    "pH", "sulphates", "alcohol",
]


def wine_schema():
    attrs = [d.Attribute(n, "continuous") for n in WINE_CONTINUOUS]
    attrs.append(d.Attribute("quality", "categorical", ("3", "4", "5", "6", "7", "8")))
    return d.Schema(tuple(attrs), target="quality")


def toy_schema():
    return d.Schema(
        (
            d.Attribute("a", "continuous"),
            d.Attribute("b", "integer"),
            d.Attribute("c", "categorical", ("x", "y", "z")),
        ),
        target="c",
    )


def toy_dataset(n=8, seed=0):
    rng = RngStream(seed, "toy")
    return d.TabularDataset(
        toy_schema(),
        (
            rng.normal(n) * 2.0 + 10.0,
            rng.integers(0, 50, size=n),
            rng.integers(0, 3, size=n),
        ),
    )


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(d.DataError):
            d.Schema((d.Attribute("a", "continuous"), d.Attribute("a", "integer")))

    def test_empty_categories_rejected(self):
        with pytest.raises(d.DataError):
            d.Attribute("c", "categorical", ())

    def test_duplicate_categories_rejected(self):
        with pytest.raises(d.DataError):
            d.Attribute("c", "categorical", ("x", "x"))

    def test_missing_target_rejected(self):
        with pytest.raises(d.DataError):
            d.Schema((d.Attribute("a", "continuous"),), target="zz")


class TestLoadCsv:
    def test_small_file_roundtrip(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,c\n1.5,3,x\n-2.0,7,z\n")
        ds = d.load_csv(p, toy_schema())
        assert ds.n_rows == 2
        assert ds.raw_row(0) == (1.5, 3, "x")
        assert ds.raw_row(1) == (-2.0, 7, "z")

    def test_bad_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,c\n1.0,3,x\nabc,7,z\n")
        with pytest.raises(d.DataError, match=r"line 3.*'a'"):
            d.load_csv(p, toy_schema())

    def test_out_of_vocabulary_category(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,c\n1.0,3,weird\n")
        with pytest.raises(d.DataError, match="categories"):
            d.load_csv(p, toy_schema())

    def test_header_mismatch(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,wrong\n1.0,3,x\n")
        with pytest.raises(d.DataError, match="header"):
            d.load_csv(p, toy_schema())

    def test_missing_file(self, tmp_path):
        with pytest.raises(d.DataError, match="cannot open"):
            d.load_csv(tmp_path / "nope.csv", toy_schema())

    def test_missing_value_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,c\n1.0,,x\n")
        with pytest.raises(d.DataError, match="missing value"):
            d.load_csv(p, toy_schema())

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_number_names_line_and_column(self, tmp_path, cell):
        p = tmp_path / "t.csv"
        p.write_text(f"a,b,c\n1.0,3,x\n{cell},7,z\n")
        with pytest.raises(d.DataError, match=r"^line 3, column 'a': non-finite value$"):
            d.load_csv(p, toy_schema())

    @pytest.mark.parametrize("body,want", [
        ("", "{p}: empty file"),
        ("a,b,c\n1.0,3,x\n1.0,3\n", "line 3: expected 3 cells, got 2"),
        ("a,b,c\n1.0,3.5,x\n", "line 2, column 'b': cannot parse '3.5' as integer"),
    ], ids=["empty", "cell-count", "integer"])
    def test_malformed_file_refused_in_one_line(self, tmp_path, body, want):
        p = tmp_path / "t.csv"
        p.write_text(body)
        with pytest.raises(d.DataError) as exc:
            d.load_csv(p, toy_schema())
        assert str(exc.value) == want.format(p=p)

    # the decoder's error once escaped: it named no file, and its position
    # counted from the start of a read chunk
    def test_non_utf8_file_refused_by_path(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes(b"a,b,c\n1.0,3,x\n1.0,3,\xe9\n")
        with pytest.raises(d.DataError) as exc:
            d.load_csv(p, toy_schema())
        assert str(exc.value) == f"{p} is not UTF-8 text: byte 0xe9 on line 3"

    @pytest.mark.skipif(not os.path.exists(WINE_PATH), reason="wine csv not present")
    def test_red_wine_has_1599_records(self):
        ds = d.load_csv(WINE_PATH, wine_schema())
        assert ds.n_rows == 1599


class TestEncoder:
    def test_two_point_column(self):
        schema = d.Schema((d.Attribute("a", "continuous"),))
        ds = d.TabularDataset(schema, (np.array([0.0, 2.0]),))
        enc = d.fit_encoder(ds)
        assert enc.mu[0] == pytest.approx(1.0)
        assert enc.sigma[0] == pytest.approx(1.0)
        e = d.encode(ds, enc)
        assert np.allclose(e.matrix[:, 0], [-1.0, 1.0])

    def test_constant_column_rejected(self):
        schema = d.Schema((d.Attribute("a", "continuous"),))
        ds = d.TabularDataset(schema, (np.array([5.0, 5.0, 5.0]),))
        with pytest.raises(d.DataError, match="constant"):
            d.fit_encoder(ds)

    def test_zero_rows_rejected(self):
        schema = d.Schema((d.Attribute("a", "continuous"), d.Attribute("b", "integer")))
        ds = d.TabularDataset(schema, (np.zeros(0), np.zeros(0, dtype=np.int64)))
        with pytest.raises(d.DataError, match="'a' is constant"):
            d.fit_encoder(ds)

    def test_constant_integer_column_rejected(self):
        schema = d.Schema((d.Attribute("a", "continuous"), d.Attribute("b", "integer")))
        ds = d.TabularDataset(schema, (np.array([1.0, 2.0]), np.array([4, 4])))
        with pytest.raises(d.DataError, match="'b' is constant"):
            d.fit_encoder(ds)

    def test_categorical_width(self):
        ds = toy_dataset()
        enc = d.fit_encoder(ds)
        assert enc.width == 1 + 1 + 3
        assert enc.spans[2] == (2, 3)

    def test_layout_derived_from_schema(self):
        enc = d.fit_encoder(toy_dataset())
        assert d.Encoder(enc.schema, enc.mu, enc.sigma) == enc

    @pytest.mark.parametrize("mu,sigma", [((0.0, 0.0), (1.0, 1.0, 0.0)),
                                          ((0.0, 0.0, 0.0), (1.0,))])
    def test_parameter_count_must_match_schema(self, mu, sigma):
        with pytest.raises(d.DataError, match="for 3 attributes"):
            d.Encoder(toy_schema(), mu, sigma)

    @pytest.mark.skipif(not os.path.exists(WINE_PATH), reason="wine csv not present")
    def test_wine_quality_one_hot_width(self):
        ds = d.load_csv(WINE_PATH, wine_schema())
        enc = d.fit_encoder(ds)
        assert enc.width == 11 + 6

    def test_standardized_columns_have_unit_moments(self):
        ds = toy_dataset(n=100, seed=3)
        enc = d.fit_encoder(ds)
        e = d.encode(ds, enc)
        for i, attr in enumerate(ds.schema.attributes):
            if attr.is_numeric:
                col = e.matrix[:, enc.spans[i][0]]
                assert abs(col.mean()) < 1e-9
                assert abs(col.std() - 1.0) < 1e-9

    def test_one_hot_blocks_are_exact(self):
        ds = toy_dataset(n=50, seed=4)
        e = d.encode(ds, d.fit_encoder(ds))
        block = e.matrix[:, 2:5]
        assert np.array_equal(block.sum(axis=1), np.ones(50))
        assert np.isin(block, [0.0, 1.0]).all()


class TestRoundTrip:
    def test_decode_encode_identity(self):
        ds = toy_dataset(n=64, seed=5)
        enc = d.fit_encoder(ds)
        back = d.decode(d.encode(ds, enc))
        assert np.array_equal(back.columns[1], ds.columns[1])
        assert np.array_equal(back.columns[2], ds.columns[2])
        assert np.allclose(back.columns[0], ds.columns[0], atol=1e-9)

    def test_soft_block_snaps_to_argmax(self):
        ds = toy_dataset(n=8, seed=6)
        enc = d.fit_encoder(ds)
        m = np.zeros((1, enc.width))
        m[0, 2:5] = [0.2, 0.7, 0.1]
        out = d.decode(d.EncodedDataset(m, enc))
        assert out.columns[2][0] == 1

    def test_destandardize(self):
        schema = d.Schema((d.Attribute("a", "continuous"),))
        ds = d.TabularDataset(schema, (np.array([8.0, 12.0]),))
        enc = d.fit_encoder(ds)  # mu=10, sigma=2
        m = np.array([[1.0]])
        out = d.decode(d.EncodedDataset(m, enc))
        assert out.columns[0][0] == pytest.approx(12.0)

    def test_integer_rounding(self):
        schema = d.Schema((d.Attribute("b", "integer"),))
        ds = d.TabularDataset(schema, (np.array([0, 10]),))
        enc = d.fit_encoder(ds)  # mu=5, sigma=5
        m = np.array([[0.21]])  # raw 6.05 -> 6
        out = d.decode(d.EncodedDataset(m, enc))
        assert out.columns[0][0] == 6


class TestVerticalSplit:
    def test_party_widths_sum(self):
        ds = toy_dataset(n=20, seed=7)
        e = d.encode(ds, d.fit_encoder(ds))
        split = d.VerticalSplit(((0, 1), (2,)))
        views = fg.partition(e, split).views
        assert views[0].shape == (20, 2)
        assert views[1].shape == (20, 3)
        assert np.array_equal(np.hstack(views), e.matrix)

    def test_party_views_share_the_encoded_matrix(self):
        ds = toy_dataset(n=20, seed=7)
        e = d.encode(ds, d.fit_encoder(ds))
        for split in (d.VerticalSplit(((0, 1), (2,))), d.VerticalSplit(((0,), (1, 2)))):
            for view in fg.partition(e, split).views:
                assert np.shares_memory(view, e.matrix)

    def test_double_assignment_rejected(self):
        with pytest.raises(d.DataError):
            d.VerticalSplit(((0, 1), (1, 2)))

    def test_empty_party_rejected(self):
        with pytest.raises(d.DataError):
            d.VerticalSplit(((0, 1, 2), ()))

    def test_non_exhaustive_rejected(self):
        ds = toy_dataset()
        e = d.encode(ds, d.fit_encoder(ds))
        with pytest.raises(d.DataError):
            fg.partition(e, d.VerticalSplit(((0, 1),)))

    def test_non_contiguous_rejected(self):
        with pytest.raises(d.DataError, match="contiguous"):
            d.VerticalSplit(((0, 2), (1,)))


class TestSubsampleAndLeaveOneOut:
    def test_aligned_between_parties(self):
        s1 = RngStream(9, "batch")
        s2 = RngStream(9, "batch")
        for _ in range(10):
            assert np.array_equal(s1.subsample(100, 32), s2.subsample(100, 32))

    def test_leave_one_out_order(self):
        ds = toy_dataset(n=3, seed=8)
        out = d.leave_one_out(ds, 1)
        assert out.n_rows == 2
        assert out.raw_row(0) == ds.raw_row(0)
        assert out.raw_row(1) == ds.raw_row(2)

    def test_leave_one_out_bounds(self):
        ds = toy_dataset(n=3)
        with pytest.raises(d.DataError):
            d.leave_one_out(ds, 3)

    def test_remove_each_index_once(self):
        ds = toy_dataset(n=5, seed=9)
        seen = set()
        for i in range(5):
            out = d.leave_one_out(ds, i)
            assert out.n_rows == 4
            seen.add(tuple(out.raw_row(j) for j in range(4)))
        assert len(seen) == 5

    def test_csv_roundtrip_through_files(self, tmp_path):
        ds = toy_dataset(n=12, seed=10)
        p = tmp_path / "out.csv"
        ds.to_csv(p)
        back = d.load_csv(p, ds.schema)
        assert np.allclose(back.columns[0], ds.columns[0])
        assert np.array_equal(back.columns[1], ds.columns[1])
        assert np.array_equal(back.columns[2], ds.columns[2])
        # a category holding the delimiter and the quote is written quoted
        odd = d.Attribute("c", "categorical", ("x", 'y, "z"'))
        schema = d.Schema((*ds.schema.attributes[:2], odd))
        ds = d.TabularDataset(schema, (ds.columns[0][:2], ds.columns[1][:2],
                                       np.array([1, 0])))
        ds.to_csv(p)
        assert p.read_text().split("\n")[1].endswith(',"y, ""z"""')
        assert d.load_csv(p, schema).raw_row(0) == ds.raw_row(0)
        # numpy scalars print as plain numbers; a str cell is written as is
        d.write_csv(p, ["i", "x", "e"], [(np.int64(7), np.float64(0.1), ""),
                                         (3, math.nan, "s")])
        assert p.read_bytes() == b"i,x,e\n7,0.1,\n3,nan,s\n"
