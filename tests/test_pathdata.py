import csv
import io
import json
import math
import re
from itertools import islice, product, repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataset_builder import (PathRow, classify_per_record, dataset_from_records, path_codes, path_rows, record_from_rows,
                             table_from_codes)

from idschan import pathdata
from idschan.linksim import LinkBudget
from idschan.pathdata import (
    _CHUNK_ROWS,
    CSV_COLUMNS,
    FLOAT_COLUMNS,
    Condition,
    DatasetFormatError,
    DatasetValidationError,
    Interaction,
    PathTable,
    Provenance,
    ScenarioDataset,
    format_float,
    load_dataset,
    save_dataset,
)

L, R, D, S = (
    Interaction.DIRECT,
    Interaction.REFLECT,
    Interaction.DIFFRACT,
    Interaction.DIFFUSE_SCATTER,
)


def comp(tags, power=-50.0, delay=10.0, **kw):
    defaults = dict(
        power_dbm=power,
        delay_ns=delay,
        aod_az_deg=10.0,
        aod_el_deg=5.0,
        aoa_az_deg=-20.0,
        aoa_el_deg=-5.0,
        interactions=tuple(tags),
    )
    defaults.update(kw)
    return PathRow(**defaults)


def table(*rows):
    return record_from_rows(0, (1.0, 0.0, 1.0), (0.0, 0.0, 1.0), rows).paths


def condition_of(*rows):
    """The condition column's entry for one receiver with these path rows."""
    paths = table(*rows)
    return ScenarioDataset("d", (0.0, 0.0, 1.0), LinkBudget(), [0], [(1.0, 0.0, 1.0)], paths, [len(paths)],
                           Provenance.SYNTHETIC).conditions[0]


class TestClassify:
    def test_direct_present_is_los(self):
        assert condition_of(comp([L]), comp([R])) is Condition.LOS

    def test_no_direct_not_all_scatter_is_nlos(self):
        assert condition_of(comp([R, R]), comp([D])) is Condition.NLOS

    def test_all_paths_scattered_is_ds(self):
        assert condition_of(comp([S]), comp([R, S])) is Condition.DS

    def test_empty_is_outage(self):
        assert condition_of() is Condition.OUTAGE

    @given(
        st.lists(
            st.sampled_from([(L,), (R,), (R, R), (D,), (S,), (R, S), (D, S)]),
            max_size=6,
        ),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariant(self, tag_lists, rnd):
        paths = [comp(t) for t in tag_lists]
        shuffled = paths[:]
        rnd.shuffle(shuffled)
        assert condition_of(*paths) is condition_of(*shuffled)


class TestComponentValidation:
    """Rows are validated when they become a table, e.g. in record_from_rows."""

    def test_nonpositive_delay_rejected(self):
        with pytest.raises(DatasetValidationError, match="rx 4"):
            record_from_rows(4, (1.0, 0.0, 1.0), (0.0, 0.0, 1.0), [comp([R], delay=-1.0)])
        with pytest.raises(DatasetValidationError):
            table(comp([R], delay=0.0))

    def test_azimuth_range(self):
        with pytest.raises(DatasetValidationError):
            table(comp([R], aod_az_deg=-180.0))
        assert table(comp([R], aod_az_deg=180.0)).aod_az_deg[0] == 180.0

    def test_elevation_range(self):
        with pytest.raises(DatasetValidationError):
            table(comp([R], aoa_el_deg=90.5))

    def test_direct_must_be_alone(self):
        with pytest.raises(DatasetValidationError):
            table(comp([L, R]))

    def test_empty_interactions_rejected(self):
        with pytest.raises(DatasetValidationError):
            table(comp([]))

    def test_non_finite_values_rejected(self):
        for bad in (dict(power=math.inf), dict(power=math.nan), dict(power=-math.inf),
                    dict(delay=math.inf), dict(aoa_az_deg=math.nan), dict(aod_el_deg=math.nan)):
            with pytest.raises(DatasetValidationError):
                table(comp([R], **bad))

    def test_power_whose_milliwatts_overflow_rejected(self):
        with pytest.raises(DatasetValidationError, match="power_dbm"):
            table(comp([R], power=4000.0))

    def test_power_at_the_bound_is_a_normal_float(self):
        t = table(comp([R], power=-2999.9999999999995), comp([R], power=2999.9999999999995))
        assert (t.power_mw >= np.finfo(float).tiny).all() and np.isfinite(t.power_mw).all()

    def test_error_names_first_bad_row(self):
        zeros = [0.0, 0.0, 0.0]
        with pytest.raises(DatasetValidationError, match=r"path 1: delay_ns=-2\.0"):
            table_from_codes([-50.0] * 3, [5.0, -2.0, 5.0], zeros, zeros, zeros, [0.0, 0.0, 91.0], ["R"] * 3)

    @pytest.mark.parametrize("code, tag", [("R\0", "R\0"), ("L\0\0", "L\0\0"), ("R+S\0", "S\0")])
    def test_nul_in_a_code_is_an_unknown_tag(self, code, tag):
        zeros = [0.0, 0.0]
        with pytest.raises(DatasetFormatError) as info:
            table_from_codes([-50.0] * 2, [5.0] * 2, zeros, zeros, zeros, zeros, ["R", code])
        assert str(info.value) == f"path 1: unknown interaction tag {tag!r}"

    @pytest.mark.parametrize("codes, error, message", [
        (["X", "A"], DatasetFormatError, "path 0: unknown interaction tag 'X'"),
        (["R+L", "Q"], DatasetValidationError, "path 0: interactions must be non-empty, Direct alone"),
        (["R", "S", "R+Q", "Q"], DatasetFormatError, "path 2: unknown interaction tag 'Q'"),
    ])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_tag_error_names_first_bad_row(self, codes, error, message, as_array):
        zeros = [0.0] * len(codes)
        with pytest.raises(error) as info:
            table_from_codes([-50.0] * len(codes), [5.0] * len(codes), zeros, zeros, zeros, zeros,
                             np.array(codes) if as_array else codes)
        assert str(info.value) == message

    def test_codes_canonical_and_rows_round_trip(self):
        t = table_from_codes([-50.0, -60.0], [5.0, 6.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                             [0.0, 0.0], [" R + S", "L"])
        assert path_codes(t) == ["R+S", "L"]
        assert path_rows(t) == [comp([R, S], power=-50.0, delay=5.0, aod_az_deg=0.0, aod_el_deg=0.0,
                                     aoa_az_deg=0.0, aoa_el_deg=0.0),
                                comp([L], power=-60.0, delay=6.0, aod_az_deg=0.0, aod_el_deg=0.0,
                                     aoa_az_deg=0.0, aoa_el_deg=0.0)]
        assert t.power_mw.tolist() == [1e-05, 1e-06]

    def test_columns_read_only(self):
        t = table(comp([R]), comp([L]))
        for view in (t, t[1:], t[::-1]):
            with pytest.raises(ValueError):
                view.delay_ns[0] = 1.0


def distinct_codes(n):
    """``n`` distinct valid codes: the R, D and S sequences of one to five tags, shortest first."""
    return ["+".join(tags) for tags in islice((p for k in range(1, 6) for p in product("RDS", repeat=k)), n)]


class TestCodeIndex:
    """A table holds each distinct code once, in the order its rows first use them, and one index per path."""

    def test_codes_canonical_distinct_and_in_first_use_order(self):
        zeros = [0.0] * 4
        t = PathTable([-50.0] * 4, [5.0] * 4, zeros, zeros, zeros, zeros, ("L", " R + S", "Q", "R+S", "R"), [4, 1, 3, 0])
        assert t.codes == ("R", "R+S", "L")  # "Q" is used by no row, so it is neither kept nor checked
        assert t.code_index.tolist() == [0, 1, 1, 2] and t.code_index.dtype == np.uint8
        assert t.direct.tolist() == [False, False, False, True]
        assert t == table_from_codes([-50.0] * 4, [5.0] * 4, zeros, zeros, zeros, zeros, ["R", "R+S", "R+S", "L"])
        assert not t.code_index.flags.writeable

    def test_views_keep_their_tables_codes(self):
        zeros = [0.0] * 3
        t = table_from_codes([-50.0] * 3, [5.0] * 3, zeros, zeros, zeros, zeros, ["L", "R", "R+S"])
        assert t[1:].codes == ("L", "R", "R+S") and path_codes(t[1:]) == ["R", "R+S"]
        assert t[1:].direct.tolist() == [False, False]
        # equal rows are equal whatever order their tables first used the codes in
        same_rows = table_from_codes([-50.0] * 2, [5.0] * 2, zeros[:2], zeros[:2], zeros[:2], zeros[:2], ["R", "R+S"])
        assert t[1:] == same_rows and same_rows == t[1:]
        assert t[1:] != t[:2] and t[:2] != t[1:] and t[1:] != t[1:2]

    @pytest.mark.parametrize("index", [[1], [-1]])
    def test_index_outside_the_codes_rejected(self, index):
        with pytest.raises(ValueError, match="code_index must be from 0 to 0"):
            PathTable([-50.0], [5.0], [0.0], [0.0], [0.0], [0.0], ("R",), index)

    # 3 paths with 2 indices used to build a table of len 3 with 2 codes, and (1, 3) columns one of 1 path
    @pytest.mark.parametrize("columns, index", [
        ([[-50.0, -60.0, -70.0]] + [[5.0, 6.0, 7.0]] * 5, [0, 0]),
        ([[-50.0, -60.0]] + [[5.0, 6.0]] * 5, [0, 0, 0]),
        ([[-50.0], [-60.0, -70.0]] + [[5.0, 6.0]] * 4, [0, 0]),
        ([[[-50.0, -60.0, -70.0]]] + [[[5.0, 6.0, 7.0]]] * 5, [0]),
        ([[-50.0, -60.0]] + [[5.0, 6.0]] * 5, [[0, 0]]),
        ([[-50.0, -60.0]] + [[5.0, 6.0]] * 5, [0.0, 0.0]),
        ([[-50.0, -60.0]] + [[5.0, 6.0]] * 5, [False, False]),
    ], ids=["index-short", "index-long", "columns-of-two-lengths", "columns-2d", "index-2d", "index-float",
            "index-bool"])
    def test_columns_1d_of_one_length_and_integer_index_required(self, columns, index):
        with pytest.raises(ValueError, match="must be 1-D and code_index integers, all of one length"):
            PathTable(*columns, ("R",), index)

    @pytest.mark.parametrize("n_codes, dtype", [(255, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_index_width_follows_the_code_count_and_round_trips(self, tmp_path, n_codes, dtype):
        codes = distinct_codes(n_codes)
        per_path = [codes[(37 * i) % n_codes] for i in range(2 * n_codes)]  # 37 is prime to each count
        rng = np.random.default_rng(n_codes)
        zeros = np.zeros(len(per_path))
        paths = table_from_codes(rng.uniform(-120.0, -30.0, len(per_path)), rng.uniform(1.0, 100.0, len(per_path)),
                                 zeros, zeros, zeros, zeros, per_path)
        ds = ScenarioDataset("codes", (0.0, 0.0, 1.0), LinkBudget(), range(n_codes),
                             [(1.0 + i, 0.0, 1.0) for i in range(n_codes)], paths, [2] * n_codes, Provenance.INGESTED)
        assert len(ds.paths.codes) == n_codes and ds.paths.code_index.dtype == dtype
        save_dataset(ds, tmp_path / "a.csv")
        back = load_dataset(tmp_path / "a.csv")
        assert back.paths.code_index.dtype == dtype and back.paths == ds.paths
        save_dataset(back, tmp_path / "b.csv")
        assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()


def small_dataset():
    tx = (0.0, 1.7, 2.1)
    records = (
        record_from_rows(0, (3.0, 1.7, 0.9), tx, [comp([L], power=-45.0, delay=11.0), comp([R, R])]),
        record_from_rows(1, (5.5, 0.3, 0.7), tx, [comp([R]), comp([D, S])]),
        record_from_rows(2, (7.0, 3.9, 0.6), tx, []),  # outage
        record_from_rows(3, (2.0, 2.0, 1.0), tx, [comp([S]), comp([R, S])]),
    )
    return dataset_from_records("unit", tx, LinkBudget(), records, Provenance.SYNTHETIC)


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.scenario_name == ds.scenario_name
        assert back.tx_position_m == ds.tx_position_m
        assert back.link_budget == ds.link_budget
        assert back.provenance == ds.provenance
        assert back.records == ds.records

    def test_outage_record_preserved(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.records[2].condition is Condition.OUTAGE
        assert len(back.records[2].paths) == 0

    def test_empty_dataset_header_only(self, tmp_path):
        ds = dataset_from_records("empty", (0, 0, 1), LinkBudget(), (), Provenance.SYNTHETIC)
        path = tmp_path / "empty.csv"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("rx_id,")
        assert load_dataset(path).records == ()

    def test_conditions_recomputed_on_load(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        for rec in back.records:
            assert rec.condition is classify_per_record(rec.paths)

    @given(
        specs=st.lists(
            st.tuples(
                st.sampled_from([(L,), (R,), (R, R, D), (S,), (R, S)]),
                st.floats(-120, 30),
                st.floats(0.1, 5000),
                st.floats(-179.99, 180.0),
                st.floats(-90.0, 90.0),
            ),
            min_size=0,
            max_size=5,
        ),
        n_outage=st.integers(0, 3),
    )
    def test_roundtrip_property(self, tmp_path_factory, specs, n_outage):
        tx = (0.0, 0.0, 1.0)
        paths = [
            comp(tags, power=p, delay=d, aod_az_deg=az, aoa_el_deg=el)
            for tags, p, d, az, el in specs
        ]
        records = [record_from_rows(0, (4.0, 1.0, 1.0), tx, paths)]
        for i in range(n_outage):
            records.append(record_from_rows(i + 1, (5.0 + i, 1.0, 1.0), tx, []))
        ds = dataset_from_records("prop", tx, LinkBudget(), tuple(records), Provenance.INGESTED)
        path = tmp_path_factory.mktemp("rt") / "ds.csv"
        save_dataset(ds, path)
        assert load_dataset(path).records == ds.records


def csv_writer_save(ds, path):
    """The dataset CSV written cell by cell with csv.writer: the oracle of save_dataset's bytes."""
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for rec in ds.records:
            x, y, z = (format_float(v) for v in rec.position_m)
            if not rec.paths:
                w.writerow([rec.rx_id, x, y, z, format_float(-math.inf), *["0.0"] * 5, ""])
                continue
            columns = [map(format_float, getattr(rec.paths, name).tolist()) for name in FLOAT_COLUMNS]
            w.writerows(zip(repeat(rec.rx_id), repeat(x), repeat(y), repeat(z), *columns,
                            path_codes(rec.paths)))


def assert_csv_matches_oracle(ds, directory):
    save_dataset(ds, directory / "ds.csv")
    csv_writer_save(ds, directory / "oracle.csv")
    assert (directory / "ds.csv").read_bytes() == (directory / "oracle.csv").read_bytes()


class TestWriterBytes:
    def test_edge_values_match_csv_writer(self, tmp_path):
        tx = (0.0, 1.7, 2.1)
        tiny = 5e-324  # the smallest subnormal
        records = (
            record_from_rows(2**64 + 3, (-0.0, tiny, 1.0), tx, [
                comp([S], power=-0.0, delay=tiny, aod_az_deg=180.0, aod_el_deg=-0.0),
                comp([R, S], power=-2999.5, delay=1e16, aoa_az_deg=-179.99999999999997, aoa_el_deg=-90.0),
            ]),
            record_from_rows(-7, (2.2250738585072014e-308, -0.0, -0.0), tx, []),  # outage
            record_from_rows(0, (3.0, 1.7, 0.9), tx, [comp([L], power=-45.0, delay=1e-05), comp([R, R, D])]),
            record_from_rows(2**63, (0.1, 0.2, 0.30000000000000004), tx, [comp([S])]),
        )
        ds = dataset_from_records("edges", tx, LinkBudget(), records, Provenance.SYNTHETIC)
        assert [r.condition for r in records] == [Condition.DS, Condition.OUTAGE, Condition.LOS, Condition.DS]
        assert_csv_matches_oracle(ds, tmp_path)
        assert load_dataset(tmp_path / "ds.csv").records == ds.records

    @settings(max_examples=200, deadline=None)
    @given(
        specs=st.lists(
            st.tuples(
                st.integers(-2**70, 2**70),
                st.tuples(*[st.floats(-1e150, 1e150)] * 3),
                st.lists(
                    st.tuples(
                        st.sampled_from([(L,), (R,), (R, R, D), (S,), (R, S), (D, S)]),
                        st.floats(-3000.0, 3000.0, exclude_min=True, exclude_max=True),
                        st.floats(0.0, 1e300, exclude_min=True),
                        *[st.floats(-180.0, 180.0, exclude_min=True), st.floats(-90.0, 90.0)] * 2,
                    ),
                    max_size=4,
                ),
            ),
            max_size=5,
            unique_by=lambda spec: spec[0],
        ),
    )
    def test_matches_csv_writer(self, tmp_path_factory, specs):
        tx = (0.0, 0.0, 1.0)
        records = tuple(
            record_from_rows(rx_id, position, tx, [PathRow(*values, tags) for tags, *values in paths])
            for rx_id, position, paths in specs
        )
        ds = dataset_from_records("prop", tx, LinkBudget(), records, Provenance.INGESTED)
        assert_csv_matches_oracle(ds, tmp_path_factory.mktemp("bytes"))


def quote_all_rows(text):
    """CSV text rewritten with every cell quoted; blank rows stay blank."""
    out = io.StringIO()
    rows = csv.reader(io.StringIO(text, newline=""))
    csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(rows)
    return out.getvalue()


class TestLoaderErrors:
    def write(self, tmp_path, body, meta=True):
        p = tmp_path / "bad.csv"
        header = "rx_id,rx_x_m,rx_y_m,rx_z_m,power_dbm,delay_ns,aod_az_deg,aod_el_deg,aoa_az_deg,aoa_el_deg,interactions\n"
        p.write_text(header + body)
        if meta:
            (tmp_path / "bad.meta.json").write_text(
                '{"scenario_name": "x", "tx_position_m": [0, 0, 1], "provenance": "Ingested"}'
            )
        return p

    def test_malformed_row_names_line(self, tmp_path):
        p = self.write(tmp_path, "0,1.0,0.0,1.0,notafloat,5.0,0.0,0.0,0.0,0.0,R\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(p)

    def test_short_row_names_line(self, tmp_path):
        p = self.write(tmp_path, "0,1.0,0.0\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(p)

    def test_negative_delay_names_rx(self, tmp_path):
        p = self.write(tmp_path, "7,1.0,0.0,1.0,-50.0,-1.0,0.0,0.0,0.0,0.0,R\n")
        with pytest.raises(DatasetValidationError, match="rx 7"):
            load_dataset(p)

    def test_angle_out_of_range_names_rx(self, tmp_path):
        p = self.write(tmp_path, "3,1.0,0.0,1.0,-50.0,5.0,200.0,0.0,0.0,0.0,R\n")
        with pytest.raises(DatasetValidationError, match="rx 3"):
            load_dataset(p)

    def test_unknown_tag(self, tmp_path):
        p = self.write(tmp_path, "0,1.0,0.0,1.0,-50.0,5.0,0.0,0.0,0.0,0.0,R+Q\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(p)

    # numpy's str dtype drops trailing NULs, which once loaded "R\0" as "R" and "L\0\0" as "L"
    @pytest.mark.parametrize("tag", ["R\0", "L\0\0"])
    def test_nul_in_tag_is_an_unknown_tag(self, tmp_path, tag):
        p = self.write(tmp_path, f"0,1.0,0.0,1.0,-50.0,5.0,0.0,0.0,0.0,0.0,{tag}\n")
        with pytest.raises(DatasetFormatError, match="^line 2: "):
            load_dataset(p)

    def test_missing_sidecar(self, tmp_path):
        p = self.write(tmp_path, "", meta=False)
        with pytest.raises(DatasetFormatError, match="sidecar"):
            load_dataset(p)

    def test_extra_condition_column_ignored(self, tmp_path):
        p = self.write(tmp_path, "0,1.0,0.0,1.0,-50.0,5.0,0.0,0.0,0.0,0.0,R,LOS\n")
        ds = load_dataset(p)
        assert ds.records[0].condition is Condition.NLOS  # recomputed, not trusted

    def test_inconsistent_rx_position(self, tmp_path):
        body = (
            "0,1.0,0.0,1.0,-50.0,5.0,0.0,0.0,0.0,0.0,R\n"
            "0,2.0,0.0,1.0,-52.0,6.0,0.0,0.0,0.0,0.0,R\n"
        )
        p = self.write(tmp_path, body)
        with pytest.raises(DatasetValidationError, match="rx 0"):
            load_dataset(p)

    def test_outage_row_mixed_with_paths(self, tmp_path):
        body = (
            "0,1.0,0.0,1.0,-50.0,5.0,0.0,0.0,0.0,0.0,R\n"
            "0,1.0,0.0,1.0,-INF,0.0,0.0,0.0,0.0,0.0,\n"
        )
        p = self.write(tmp_path, body)
        with pytest.raises(DatasetValidationError, match="outage"):
            load_dataset(p)

    def test_empty_interactions_needs_inf_sentinel(self, tmp_path):
        p = self.write(tmp_path, "0,1.0,0.0,1.0,-50.0,0.0,0.0,0.0,0.0,0.0,\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(p)

    def test_validation_error_names_line_and_rx(self, tmp_path):
        body = (
            "5,1.0,0.0,1.0,-50.0,5.0,0.0,0.0,0.0,0.0,R\n"
            "6,2.0,0.0,1.0,-50.0,5.0,0.0,95.0,0.0,0.0,R\n"
        )
        p = self.write(tmp_path, body)
        with pytest.raises(DatasetValidationError, match="line 3: rx 6: aod_el_deg"):
            load_dataset(p)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_rx_coordinate_names_line(self, tmp_path, token):
        body = (
            "0,1.0,0.0,1.0,-50.0,5.0,0.0,0.0,0.0,0.0,R\n"
            f"1,{token},0.0,1.0,-50.0,5.0,0.0,0.0,0.0,0.0,R\n"
        )
        p = self.write(tmp_path, body)
        with pytest.raises(DatasetValidationError, match="line 3: rx 1: non-finite position"):
            load_dataset(p)

    @pytest.mark.parametrize("row", ["4,-0.0,0.0,1.0,-50.0,5.0,0.0,0.0,0.0,0.0,R",
                                     "4,0.0,-0.0,1.0,-INF,0.0,0.0,0.0,0.0,0.0,"], ids=["path", "outage"])
    def test_rx_at_the_tx_names_line_and_rx(self, tmp_path, row):
        # the sidecar's TX is at (0, 0, 1); a traced Scene rejects the same geometry
        p = self.write(tmp_path, f"0,1.0,0.0,1.0,-50.0,5.0,0.0,0.0,0.0,0.0,R\n{row}\n")
        with pytest.raises(DatasetValidationError, match="^line 3: rx 4: position coincides with the TX$"):
            load_dataset(p)

    def test_rx_next_to_the_tx_accepted(self, tmp_path):
        p = self.write(tmp_path, "4,5e-324,0.0,1.0,-50.0,5.0,0.0,0.0,0.0,0.0,L\n")
        assert load_dataset(p).records[0].distance_3d_m == 5e-324

    @pytest.mark.parametrize("power", ["-3300.0", "-3000.0", "3000.0", "-1e300"])
    def test_power_outside_the_bound_names_line_and_rx(self, tmp_path, power):
        body = (
            "5,1.0,0.0,1.0,-50.0,5.0,0.0,0.0,0.0,0.0,L\n"
            f"6,2.0,0.0,1.0,{power},5.0,0.0,0.0,0.0,0.0,R\n"
        )
        p = self.write(tmp_path, body)
        with pytest.raises(DatasetValidationError,
                           match=rf"^line 3: rx 6: power_dbm={re.escape(repr(float(power)))}, "
                                 r"must be in \(-3000, 3000\) dBm$"):
            load_dataset(p)

    def test_non_finite_outage_coordinate_rejected(self, tmp_path):
        p = self.write(tmp_path, "0,1.0,nan,1.0,-INF,0.0,0.0,0.0,0.0,0.0,\n")
        with pytest.raises(DatasetValidationError, match="line 2"):
            load_dataset(p)

    def sidecar(self, tmp_path, meta):
        p = self.write(tmp_path, "0,1.0,0.0,1.0,-50.0,5.0,0.0,0.0,0.0,0.0,R\n", meta=False)
        (tmp_path / "bad.meta.json").write_text(json.dumps(meta))
        return p

    @pytest.mark.parametrize("tx", [["inf", 1, 1], [0, float("nan"), 1], [0, 0, 1e999], [0, 0]])
    def test_non_finite_sidecar_tx_names_sidecar(self, tmp_path, tx):
        p = self.sidecar(tmp_path, {"scenario_name": "x", "tx_position_m": tx})
        with pytest.raises(DatasetFormatError, match="bad.meta.json"):
            load_dataset(p)

    # A sidecar number must be a JSON number: strings and booleans used to be converted with float(),
    # and the scenario name with str(), so "123" loaded as a TX at (1, 2, 3).
    @pytest.mark.parametrize("key, value, message", [
        ("tx_position_m", "123", "tx_position_m must be a list of 3 finite numbers, got '123'"),
        ("link_budget", {"tx_power_dbm": "20"}, "link_budget.tx_power_dbm must be a finite number, got '20'"),
        ("link_budget", {"tx_power_dbm": True}, "link_budget.tx_power_dbm must be a finite number, got True"),
        ("link_budget", {"bandwidth_hz": "1e9"}, "link_budget.bandwidth_hz must be a finite number, got '1e9'"),
        ("scenario_name", 7, "scenario_name must be a string, got 7"),
        ("scenario_name", {"a": 1}, "scenario_name must be a string, got {'a': 1}"),
    ], ids=["tx-string", "power-string", "power-bool", "bandwidth-string", "name-int", "name-object"])
    def test_sidecar_value_of_wrong_type_rejected(self, tmp_path, key, value, message):
        meta = {"scenario_name": "x", "tx_position_m": [0, 0, 1], key: value}
        with pytest.raises(DatasetFormatError) as info:
            load_dataset(self.sidecar(tmp_path, meta))
        assert str(info.value) == f"bad.meta.json: {message}"

    def test_sidecar_integers_are_numbers(self, tmp_path):
        meta = {"scenario_name": "x", "tx_position_m": [0, 0, 1], "link_budget": {"tx_power_dbm": 20}}
        ds = load_dataset(self.sidecar(tmp_path, meta))
        assert ds.link_budget == LinkBudget() and type(ds.link_budget.tx_power_dbm) is float
        assert ds.tx_position_m == (0.0, 0.0, 1.0) and type(ds.tx_position_m[0]) is float

    @pytest.mark.parametrize("meta", [
        {"scenario_name": "x", "tx_position_m": [0, 0, 10**400]},
        {"scenario_name": "x", "tx_position_m": [0, 0, 1], "link_budget": {"gain_rx_dbi": -10**400}},
    ])
    def test_sidecar_integer_beyond_a_float_names_sidecar(self, tmp_path, meta):
        with pytest.raises(DatasetFormatError, match=r"^bad\.meta\.json: (tx_position_m\[2\]|link_budget\.gain_rx_dbi) "
                                                     r"must be a finite number, got (10{17}|-10{16})\.\.\.0{19}$"):
            load_dataset(self.sidecar(tmp_path, meta))

    @pytest.mark.parametrize("budget", [
        {"bandwidth_hz": float("nan")},
        {"tx_power_dbm": "abc"},
        {"noise_figure_db": None},
        {"gain_rx_dbi": float("inf")},
        {"bandwidth_hz": 0},
        [20.0],
    ])
    def test_bad_budget_names_sidecar(self, tmp_path, budget):
        meta = {"scenario_name": "x", "tx_position_m": [0, 0, 1], "link_budget": budget}
        with pytest.raises(DatasetFormatError, match="bad.meta.json"):
            load_dataset(self.sidecar(tmp_path, meta))

    def test_unknown_budget_key_named(self, tmp_path):
        # a misspelt key used to be dropped, so the budget silently fell back to its default
        meta = {"scenario_name": "x", "tx_position_m": [0, 0, 1], "link_budget": {"tx_power_dBm": 30}}
        with pytest.raises(DatasetFormatError, match=r"bad\.meta\.json: .*link_budget\.tx_power_dBm"):
            load_dataset(self.sidecar(tmp_path, meta))

    def test_csv_that_cannot_be_opened_names_the_file(self, tmp_path):
        (tmp_path / "bad.csv").mkdir()
        (tmp_path / "bad.meta.json").write_text('{"scenario_name": "x", "tx_position_m": [0, 0, 1]}')
        with pytest.raises(DatasetFormatError, match=r"^bad\.csv: \[Errno \d+\] Is a directory: "):
            load_dataset(tmp_path / "bad.csv")

    def test_missing_csv_and_sidecar_keep_their_messages(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="^no such dataset file: "):
            load_dataset(tmp_path / "none.csv")
        with pytest.raises(DatasetFormatError, match=r"^missing sidecar bad\.meta\.json next to bad\.csv$"):
            load_dataset(self.write(tmp_path, "", meta=False))

    def test_name_no_file_can_hold_is_rejected_naming_the_key(self, tmp_path):
        # a lone surrogate is valid JSON, but UTF-8 cannot encode it, so no table could be written
        meta = {"scenario_name": "cabin-\ud800", "tx_position_m": [0, 0, 1]}
        with pytest.raises(DatasetFormatError, match=r"^bad\.meta\.json: scenario_name must be a string UTF-8 "
                                                     r"can encode, got 'cabin-\\ud800'$"):
            load_dataset(self.sidecar(tmp_path, meta))

    @pytest.mark.parametrize("key", ["tx_position_m", "scenario_name"])
    def test_long_rejected_value_is_quoted_short(self, tmp_path, key):
        value = [0.5] * 99_999 + ["x"] if key == "tx_position_m" else list(range(100_000))
        meta = {"scenario_name": "x", "tx_position_m": [0, 0, 1], key: value}
        with pytest.raises(DatasetFormatError) as info:
            load_dataset(self.sidecar(tmp_path, meta))
        assert str(info.value).startswith(f"bad.meta.json: {key} must be ") and len(str(info.value)) < 200

    def test_sidecar_not_an_object(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="bad.meta.json"):
            load_dataset(self.sidecar(tmp_path, ["x", [0, 0, 1]]))

    def test_loaded_records_are_views_of_one_table(self, tmp_path):
        path = tmp_path / "ds.csv"
        save_dataset(small_dataset(), path)
        records = load_dataset(path).records
        assert len({id(r.paths.delay_ns.base) for r in records if len(r.paths)}) == 1

    def test_bad_code_named_at_its_first_row_in_table_order(self, tmp_path):
        # rx 1's rows are lines 2 and 4, so the table holds line 4 before line 3, the first file row of "Q"
        body = (
            "1,1.0,0.0,1.0,-50.0,5.0,0.0,0.0,0.0,0.0,R\n"
            "2,2.0,0.0,1.0,-50.0,5.0,0.0,0.0,0.0,0.0,Q\n"
            "1,1.0,0.0,1.0,-50.0,5.0,0.0,0.0,0.0,0.0,Q\n"
        )
        with pytest.raises(DatasetFormatError, match="^line 4: rx 1: unknown interaction tag 'Q'$"):
            load_dataset(self.write(tmp_path, body))

    def test_rows_of_one_rx_need_not_be_adjacent(self, tmp_path):
        body = (
            "4,1.0,0.0,1.0,-50.0,5.0,0.0,0.0,0.0,0.0,R\n"
            "2,2.0,0.0,1.0,-INF,0.0,0.0,0.0,0.0,0.0,\n"
            "4,1.0,0.0,1.0,-40.0,3.0,0.0,0.0,0.0,0.0,L\n"
        )
        ds = load_dataset(self.write(tmp_path, body))
        assert [r.rx_id for r in ds.records] == [4, 2]
        assert ds.records[0].paths.power_dbm.tolist() == [-50.0, -40.0]
        assert ds.records[0].condition is Condition.LOS
        assert ds.records[1].condition is Condition.OUTAGE

    # Rows are parsed in chunks of 2048 rows, blank rows counted, and an error names the file line
    # its row starts on. The first error of the first failing chunk is reported: short rows first,
    # then each column in turn. With one line per row, the first chunk is lines 2 to 2049.
    GOOD = "0,1.0,0.0,1.0,-50.0,5.0,0.0,0.0,0.0,0.0,R"
    SHORT = "0,1.0,0.0"
    BAD_FLOAT = "0,1.0,0.0,1.0,-50.0,oops,0.0,0.0,0.0,0.0,R"
    BAD_X = "0,nan,0.0,1.0,-50.0,5.0,0.0,0.0,0.0,0.0,R"

    def load_lines(self, tmp_path, n_lines, special, quote_all=False):
        """Rows 2..n_lines (the header is row 1) are GOOD, except those ``special`` maps to other text;
        ``quote_all`` rewrites the rows with every cell quoted."""
        assert _CHUNK_ROWS == 2048  # the expected line numbers assume it
        body = "\n".join(special.get(line, self.GOOD) for line in range(2, n_lines + 1)) + "\n"
        return load_dataset(self.write(tmp_path, quote_all_rows(body) if quote_all else body))

    @pytest.mark.parametrize("special, message", [
        # two blanks early: the first chunk still ends at line 2049, so its bad float is reported
        # before the short row on line 2051, in the second chunk
        ({100: "", 101: "", 2049: BAD_FLOAT, 2051: SHORT}, "line 2049: bad delay_ns value 'oops'"),
        ({100: "", 101: "", 2049: BAD_FLOAT}, "line 2049: bad delay_ns value 'oops'"),
        # blanks at the boundary: lines 2051 and 2052 are both in the second chunk, so its short row
        # comes first
        ({2049: "", 2050: "", 2051: BAD_FLOAT, 2052: SHORT}, "line 2052: expected 11 columns, got 3"),
        ({2049: "", 2050: "", 2052: SHORT, 2053: BAD_FLOAT}, "line 2052: expected 11 columns, got 3"),
        ({2049: "", 2050: "", 2053: BAD_FLOAT}, "line 2053: bad delay_ns value 'oops'"),
        # blanks across the boundary: lines 2069 to 2071 are all in the second chunk
        ({**{line: "" for line in range(2040, 2061)}, 2069: BAD_FLOAT, 2070: SHORT},
         "line 2070: expected 11 columns, got 3"),
        ({**{line: "" for line in range(2040, 2061)}, 2070: BAD_FLOAT, 2071: SHORT},
         "line 2071: expected 11 columns, got 3"),
        # a whole chunk's worth of blank rows
        ({**{line: "" for line in range(2, 2051)}, 2060: SHORT, 2061: BAD_FLOAT},
         "line 2060: expected 11 columns, got 3"),
        ({**{line: "" for line in range(2, 2051)}, 2061: BAD_FLOAT}, "line 2061: bad delay_ns value 'oops'"),
    ])
    def test_format_errors_name_the_line(self, tmp_path, special, message):
        for quote_all in (False, True):  # csv.reader must name the same line as str.split
            with pytest.raises(DatasetFormatError, match=f"^{message}$"):
                self.load_lines(tmp_path, 4200, special, quote_all)

    # The first quote is in row 2100, in the second chunk: from that chunk on csv.reader reads the
    # rows. The keys below number rows, not lines: a row whose quoted cell holds a newline takes
    # two lines, so each later row starts one line past its number, and its errors name that line.
    # The third chunk starts at row 4098; the ten blank rows before it count toward the chunks.
    QUOTED = GOOD[:-1] + '"R"'
    NEWLINE_IN_CELL = GOOD[:-1] + '" R\n+S"'

    @pytest.mark.parametrize("special, message", [
        ({2100: QUOTED, 2049: BAD_FLOAT}, "line 2049: bad delay_ns value 'oops'"),
        ({2100: QUOTED, 2101: SHORT, 2099: BAD_FLOAT}, "line 2101: expected 11 columns, got 3"),
        ({2100: QUOTED, 3000: BAD_FLOAT}, "line 3000: bad delay_ns value 'oops'"),
        # csv's own errors name the line too; a line too long for csv goes through it
        ({2100: NEWLINE_IN_CELL, 3000: "x" * (csv.field_size_limit() + 1)},
         r"line 3001: field larger than field limit \(131072\)"),
        ({3000: GOOD.replace("5.0", "5." + "0" * csv.field_size_limit())},
         r"line 3000: field larger than field limit \(131072\)"),
        ({2100: NEWLINE_IN_CELL, 3000: BAD_FLOAT}, "line 3001: bad delay_ns value 'oops'"),
        ({2100: NEWLINE_IN_CELL, **{line: "" for line in range(4090, 4100)}, 4107: SHORT, 4108: BAD_FLOAT},
         "line 4108: expected 11 columns, got 3"),
        ({2100: NEWLINE_IN_CELL, **{line: "" for line in range(4090, 4100)}, 4107: BAD_FLOAT, 4108: SHORT},
         "line 4109: expected 11 columns, got 3"),
    ])
    def test_quote_mid_file_keeps_line_numbers(self, tmp_path, special, message):
        with pytest.raises(DatasetFormatError, match=f"^{message}$"):
            self.load_lines(tmp_path, 4200, special)

    def test_extra_columns_ignored_on_any_row(self, tmp_path):
        ds = self.load_lines(tmp_path, 4200, {10: self.GOOD + ",LOS", 3000: self.GOOD + ",x,y"})
        assert path_codes(ds.records[0].paths) == ["R"] * 4199

    def test_newline_in_quoted_cell_loads(self, tmp_path):
        ds = self.load_lines(tmp_path, 4200, {2100: self.NEWLINE_IN_CELL, 3000: ""})
        codes = path_codes(ds.records[0].paths)
        assert len(codes) == 4198 and codes[2098] == "R+S"
        assert codes.count("R") == 4197

    def test_validation_error_after_blank_rows_names_the_line(self, tmp_path):
        special = {**{line: "" for line in range(2040, 2061)}, 4150: self.BAD_X}
        with pytest.raises(DatasetValidationError, match="^line 4150: rx 0: non-finite position$"):
            self.load_lines(tmp_path, 4200, special)

    def test_blank_rows_are_skipped(self, tmp_path):
        special = {line: "" for line in (2, 2048, 2049, 2050, 4199, 4200)}
        ds = self.load_lines(tmp_path, 4200, special)
        assert [len(r.paths) for r in ds.records] == [4199 - len(special)]


class TestDatasetInvariants:
    def test_duplicate_rx_id_rejected(self):
        tx = (0.0, 0.0, 1.0)
        rec = record_from_rows(0, (1.0, 0.0, 1.0), tx, [comp([R])])
        with pytest.raises(DatasetValidationError, match="duplicate"):
            dataset_from_records("d", tx, LinkBudget(), (rec, rec), Provenance.SYNTHETIC)

    def test_counts_must_sum_to_the_table(self):
        paths = table(comp([R]), comp([L]))
        for counts in ([1], [3], [3, -1]):
            with pytest.raises(DatasetValidationError, match="path counts sum to"):
                ScenarioDataset("d", (0.0, 0.0, 1.0), LinkBudget(), range(len(counts)),
                                [(1.0, 0.0, 1.0)] * len(counts), paths, counts, Provenance.SYNTHETIC)

    @pytest.mark.parametrize("position, shown", [((1.7e308, -1.7e308, 0.0), "inf"), ((0.0, 0.0, 1.0), "0.0")])
    def test_distance_must_be_positive_and_finite(self, position, shown):
        with pytest.raises(DatasetValidationError, match=f"^rx 8: TX-RX distance {shown} is not positive and finite$"):
            ScenarioDataset("d", (0.0, 0.0, 1.0), LinkBudget(), [7, 8], [(1.0, 0.0, 1.0), position],
                            table(), [0, 0], Provenance.SYNTHETIC)

    def test_outage_iff_no_paths(self):
        rec = record_from_rows(0, (1.0, 0.0, 1.0), (0.0, 0.0, 1.0), [])
        assert rec.condition is Condition.OUTAGE
        ds = ScenarioDataset("d", (0.0, 0.0, 1.0), LinkBudget(), [0, 1, 2], [(1.0, 0.0, 1.0)] * 3,
                             table(comp([R]), comp([S])), [1, 0, 1], Provenance.SYNTHETIC)
        assert ds.conditions.tolist() == [Condition.NLOS, Condition.OUTAGE, Condition.DS]

    @pytest.mark.parametrize("rows, condition", [
        ([comp([R]), comp([L])], Condition.LOS),
        ([comp([R, R]), comp([D])], Condition.NLOS),
        ([comp([S]), comp([R, S])], Condition.DS),
        ([], Condition.OUTAGE),
    ])
    def test_condition_derived_from_paths(self, rows, condition):
        paths = table(*rows)
        ds = ScenarioDataset("d", (0.0, 0.0, 1.0), LinkBudget(), [0], [(1.0, 0.0, 1.0)], paths, [len(rows)],
                             Provenance.SYNTHETIC)
        (rec,) = ds.records
        assert ds.conditions[0] is rec.condition is classify_per_record(paths) is condition
        assert rec.distance_3d_m == ds.distances[0] == 1.0

    def test_load_classifies_from_the_code_column(self, tmp_path):
        recs = [record_from_rows(i, (1.0 + i, 0.0, 1.0), (0.0, 0.0, 1.0), rows)
                for i, rows in enumerate([[comp([L])], [], [comp([R]), comp([S])], [comp([S])]])]
        save_dataset(dataset_from_records("d", (0.0, 0.0, 1.0), LinkBudget(), tuple(recs), Provenance.SYNTHETIC),
                     tmp_path / "d.csv")
        ds = load_dataset(tmp_path / "d.csv")
        assert ds.conditions.tolist() == [r.condition for r in recs]
        assert "records" not in vars(ds)  # no view is built until one is read
        assert [r.condition for r in ds.records] == [r.condition for r in recs]


def test_power_dbm_mw_helpers():
    from idschan.pathdata import dbm_to_mw, mw_to_dbm

    assert dbm_to_mw(0.0) == 1.0
    assert math.isclose(dbm_to_mw(10.0), 10.0)
    assert mw_to_dbm(0.0) == -math.inf
    assert math.isclose(mw_to_dbm(dbm_to_mw(-37.25)), -37.25)


def test_power_mw_is_the_per_value_conversion_on_every_read():
    """No milliwatt column is stored: each read converts power_dbm value by value,
    bit-equal to dbm_to_mw, on the whole table and on slices of it."""
    from idschan.pathdata import dbm_to_mw

    rng = np.random.default_rng(5)
    power = np.concatenate([rng.uniform(-2999.9, 2999.9, 5000), [-2999.9999999999995, 2999.9999999999995, -0.0]])
    zeros = np.zeros(len(power))
    t = PathTable(power, np.ones(len(power)), zeros, zeros, zeros, zeros, ("R",), np.zeros(len(power), np.uint8))
    assert "power_mw" not in PathTable.__slots__
    for view in (t, t[17:4000], t[::3]):
        want = np.array([dbm_to_mw(p) for p in view.power_dbm.tolist()])
        assert view.power_mw.view(np.int64).tolist() == want.view(np.int64).tolist()

# --------------------------------------------------------------------------
# loader fuzz: every rejection is typed, every accepted value is finite
# --------------------------------------------------------------------------

_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_NUMBER = st.one_of(
    st.floats(-200.0, 200.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-INF", "1e999", "-0.0", " 1.5 ", "1_0", "", "abc", "0x10"]),
    _TEXT,
)
_TAGS = st.one_of(
    st.sampled_from(["L", "R", "R+R", "D+S", "S", " R + S ", "L+R", "R+", "Q", "l", ""]),
    st.text(alphabet="LRDSQ+ \x00", max_size=6),
)


def _valid_row(rx, power, delay, az, el, tags):
    # one position per rx id, so rows of an id agree unless a mutation says otherwise
    return [str(rx), repr(1.0 + rx), "1.0", "1.0", repr(power), repr(delay),
            repr(az), repr(el), repr(-az), repr(-el), tags]


def _mutate(row, mutation, keep):
    if mutation is not None:
        index, token = mutation
        row = row[:index] + [token] + row[index + 1:]
    return row[:keep]


_VALID_ROW = st.one_of(
    st.builds(
        _valid_row, st.integers(0, 4), st.floats(-100.0, -20.0), st.floats(0.1, 100.0),
        st.floats(-179.0, 180.0), st.floats(-90.0, 90.0),
        st.sampled_from(["L", "R", "R+R", "D", "D+S", "S", "S+R"]),
    ),
    st.integers(0, 4).map(lambda rx: [str(rx), repr(1.0 + rx), "1.0", "1.0", "-INF",
                                      "0.0", "0.0", "0.0", "0.0", "0.0", ""]),
)
# a valid row with at most one token replaced, optionally cut short
_ROW = st.builds(
    _mutate, _VALID_ROW,
    st.one_of(st.none(), st.tuples(st.integers(0, 12), st.one_of(_NUMBER, _TAGS))),
    st.sampled_from([None, None, None, None, 0, 3, 10]),
)
# 300 examples, or the active profile's count where that is larger (--hypothesis-profile=ci)
_AT_LEAST_300 = max(300, settings.default.max_examples)
_VALUE = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(), _TEXT, st.none(),
                   st.lists(st.one_of(st.floats(-5, 5), st.floats(allow_nan=True), _TEXT), max_size=4))
_BUDGET_KEYS = ["tx_power_dbm", "bandwidth_hz", "noise_figure_db", "carrier_hz", "bogus"]
_META = {"scenario_name": "x", "tx_position_m": [0.0, 0.0, 1.0], "provenance": "Ingested"}


def _sidecar(mutation, keep):
    meta = dict(_META)
    if mutation is not None:
        key, value = mutation
        meta[key] = value
    return json.dumps(meta)[:keep]


# a valid sidecar with at most one value replaced, optionally cut short
_SIDECAR = st.builds(
    _sidecar,
    st.one_of(
        st.none(),
        st.tuples(st.sampled_from([*_META, "link_budget"]), _VALUE),
        st.tuples(st.just("link_budget"),
                  st.dictionaries(st.sampled_from(_BUDGET_KEYS), _VALUE, max_size=3)),
    ),
    st.sampled_from([None, None, None, None, 0, 1, 30, 60]),
)


def _assert_finite(ds):
    assert all(math.isfinite(v) for v in ds.tx_position_m)
    assert all(math.isfinite(v) for v in ds.link_budget.to_dict().values())
    for rec in ds.records:
        assert all(math.isfinite(v) for v in rec.position_m)
        assert math.isfinite(rec.distance_3d_m)
        for column in (rec.paths.power_dbm, rec.paths.delay_ns, rec.paths.aod_az_deg,
                       rec.paths.aod_el_deg, rec.paths.aoa_az_deg, rec.paths.aoa_el_deg,
                       rec.paths.power_mw):
            assert np.isfinite(column).all()
        assert (rec.paths.power_mw > 0.0).all()
        assert rec.distance_3d_m > 0.0


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_ROW, max_size=6), sidecar=_SIDECAR,
       raw=st.one_of(st.none(), st.binary(max_size=40)))
def test_loader_fuzz_rejects_typed_and_accepts_only_finite(tmp_path_factory, rows, sidecar, raw):
    d = tmp_path_factory.mktemp("fuzz")
    path = d / "ds.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        csv.writer(fh, lineterminator="\n").writerows(rows)
    if raw is not None:
        with open(path, "ab") as fh:
            fh.write(raw)
    (d / "ds.meta.json").write_text(sidecar, encoding="utf-8")
    try:
        ds = load_dataset(path)
    except (DatasetFormatError, DatasetValidationError):
        return
    _assert_finite(ds)


@settings(max_examples=_AT_LEAST_300, deadline=None)
@given(rows=st.lists(_ROW, max_size=6))
def test_plain_quoted_and_cr_files_load_alike(tmp_path_factory, rows):
    """The same rows written plain, with every cell quoted and CRLF line ends, and
    with CR line ends give equal records, or the same error. Most plain files take
    the str.split path; the others go through csv.reader."""
    d = tmp_path_factory.mktemp("pin")
    outcomes = []
    for name, quoting, end in (("plain", csv.QUOTE_MINIMAL, "\n"), ("quoted", csv.QUOTE_ALL, "\r\n"),
                               ("cr", csv.QUOTE_MINIMAL, "\r")):
        with open(d / f"{name}.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, quoting=quoting, lineterminator=end).writerows([CSV_COLUMNS, *rows])
        (d / f"{name}.meta.json").write_text(json.dumps(_META), encoding="utf-8")
        try:
            outcomes.append(load_dataset(d / f"{name}.csv").records)
        except (DatasetFormatError, DatasetValidationError) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1] == outcomes[2]


# (quoting, line end): plain, every cell quoted with CRLF, and CR
_WRITE_STYLES = ((csv.QUOTE_MINIMAL, "\n"), (csv.QUOTE_ALL, "\r\n"), (csv.QUOTE_MINIMAL, "\r"))
# a bad cell in column 5 (delay_ns), or a row cut short: the message after "line N: "
_BAD_CELLS = {"float": ("oops", "bad delay_ns value 'oops'"),
              "oversized": ("5." + "0" * csv.field_size_limit(), "field larger than field limit"),
              "short": (None, "expected 11 columns, got 3")}


def _write_with_a_bad_row(entries, bad_index, bad, quoting, end):
    """The file text of ``entries`` ("row", "blank" or "newline", a row whose quoted cell
    holds the line end ``end``) with entry ``bad_index`` made bad, and the line that entry
    starts on, counted in the text: each CRLF, CR or LF ends a line."""
    out = io.StringIO()
    writer = csv.writer(out, quoting=quoting, lineterminator=end)
    writer.writerow(CSV_COLUMNS)
    for i, entry in enumerate(entries):
        if i == bad_index:
            line = 1 + len(re.findall(r"\r\n|\r|\n", out.getvalue()))
        if entry == "blank":
            out.write(end)
            continue
        row = ["0", "1.0", "0.0", "1.0", "-50.0", repr(1.0 + i), "0.0", "0.0", "0.0", "0.0",
               f" R{end}+S" if entry == "newline" else "R"]
        if i == bad_index:
            cell = _BAD_CELLS[bad][0]
            row = row[:3] if cell is None else [*row[:5], cell, *row[6:]]
        writer.writerow(row)
    return out.getvalue(), line


@given(entries=st.lists(st.sampled_from(["row", "row", "row", "blank", "newline"]), min_size=1, max_size=24),
       pick=st.integers(0, 23), bad=st.sampled_from(sorted(_BAD_CELLS)), chunk_rows=st.integers(1, 6))
def test_errors_name_the_line_their_row_starts_on(tmp_path_factory, entries, pick, bad, chunk_rows):
    """One bad row among good, blank and multi-line rows, written plain, with every cell
    quoted and CRLF line ends, and with CR line ends: the error names the file line that
    row starts on, whichever reader reads it and wherever the chunks (shortened here) end."""
    entries = [*entries, "row"]
    rows = [i for i, entry in enumerate(entries) if entry != "blank"]
    bad_index = rows[pick % len(rows)]
    d = tmp_path_factory.mktemp("lines")
    (d / "ds.meta.json").write_text(json.dumps(_META), encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pathdata, "_CHUNK_ROWS", chunk_rows)
        for quoting, end in _WRITE_STYLES:
            text, line = _write_with_a_bad_row(entries, bad_index, bad, quoting, end)
            with open(d / "ds.csv", "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
            with pytest.raises(DatasetFormatError, match=f"^line {line}: {re.escape(_BAD_CELLS[bad][1])}"):
                load_dataset(d / "ds.csv")
