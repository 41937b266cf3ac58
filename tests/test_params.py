import csv
import dataclasses
import hashlib
import math

import pytest

from idschan.cli import main
from idschan.params import (
    BL,
    CV,
    EM_V,
    GPP_INO,
    PARAM_ROWS,
    PRESETS,
    REC_V,
    ConditionParams,
    params_table,
    preset,
    write_params_csv,
)
from idschan.pathdata import Condition


class TestPresetValues:
    def test_bl_los_large_scale(self):
        assert BL.los.a_db == 58.49
        assert BL.los.b == 1.45
        assert BL.los.sigma_sf_db == 5.58
        assert BL.los.mu_kf_db == -4.51
        assert BL.los.sigma_kf_db == -8.11  # stored verbatim, used as |sigma|
        assert BL.los.mu_ds_ns == 5.60
        assert BL.los.sigma_ds_ns == 2.35

    def test_bl_nlos_has_no_kf(self):
        assert BL.nlos.mu_kf_db is None
        assert BL.nlos.a_db == 59.00
        assert BL.nlos.b == 3.62

    def test_cv_positive_kf(self):
        assert CV.los.mu_kf_db == 4.3
        assert CV.los.sigma_kf_db == 2.32
        assert CV.nlos.b == 4.00

    def test_recv_and_emv_spot_values(self):
        assert REC_V.los.mu_ds_ns == 11.82
        assert REC_V.nlos.mu_esa_deg == 70.68
        assert EM_V.los.mu_kf_db == -4.81
        assert EM_V.nlos.sigma_sf_db == 9.38

    def test_ino_ds_columns_verbatim_plus_log_sigma(self):
        assert GPP_INO.los.mu_ds_ns == 19.65
        assert GPP_INO.los.sigma_ds_ns == 1.51e8
        assert GPP_INO.nlos.sigma_ds_ns == 1.58e8
        assert GPP_INO.los.ds_log10_sigma == 0.18
        assert GPP_INO.nlos.ds_log10_sigma == 0.10
        assert GPP_INO.los.mu_kf_db == 7.0
        assert GPP_INO.los.sigma_kf_db == 4.0

    def test_angular_block_full(self):
        assert BL.los.mu_asd_deg == 39.02
        assert BL.los.sigma_asd_deg == 15.35
        assert BL.los.mu_asa_deg == 39.25
        assert BL.los.mu_esd_deg == 31.66
        assert BL.los.sigma_esd_deg == 39.97
        assert BL.los.mu_esa_deg == 50.18
        assert BL.nlos.mu_esa_deg == 72.83


class TestLookup:
    def test_canonical_names(self):
        assert preset("BL") is BL
        assert preset("3GPP-InO") is GPP_INO

    def test_aliases_case_insensitive(self):
        assert preset("c-v") is CV
        assert preset("Rec-V") is REC_V
        assert preset("em-v") is EM_V
        assert preset("ino") is GPP_INO

    def test_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown preset"):
            preset("urban-macro")

    def test_block_access(self):
        assert BL.block(Condition.LOS) is BL.los
        assert BL.block("NLOS") is BL.nlos
        with pytest.raises(KeyError):
            BL.block(Condition.DS)


class TestTableCsv:
    def test_table_shape_and_cells(self, tmp_path):
        out = tmp_path / "presets.csv"
        write_params_csv(list(PRESETS.values()), out)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        assert header[0] == "param"
        assert "BL:LOS" in header and "3GPP-InO:NLOS" in header
        col = header.index("BL:LOS")
        by_param = {r[0]: r for r in rows[1:]}
        assert float(by_param["A_dB"][col]) == 58.49
        assert float(by_param["B"][col]) == 1.45
        assert float(by_param["sigma_SF_dB"][col]) == 5.58
        nlos_col = header.index("BL:NLOS")
        assert by_param["mu_KF_dB"][nlos_col] == "n/a"

    def test_absent_block_marked(self):
        from idschan.params import ChannelParamSet

        rows = params_table([ChannelParamSet("only-los", los=BL.los, nlos=None)])
        header = rows[0]
        col = header.index("only-los:NLOS")
        assert all(r[col] == "absent" for r in rows[1:])

    def test_fifteen_parameter_rows(self):
        rows = params_table([BL])
        assert len(rows) == 16  # header + 15 parameters
        assert [r[0] for r in rows[1:7]] == [
            "A_dB", "B", "sigma_SF_dB", "mu_KF_dB", "sigma_KF_dB", "mu_DS_ns"
        ]

    def test_rows_follow_the_field_order(self, tmp_path):
        """The table's one schema is ConditionParams' field order: each row label
        lowercases to its field, and the presets table keeps its bytes."""
        names = [f.name for f in dataclasses.fields(ConditionParams)]
        assert [label.lower() for label in PARAM_ROWS] == names[:15]
        out = tmp_path / "presets.csv"
        assert main(["presets", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "33870f15507c4f43afe35b57ffe98f2ba30871431e7c78a829fe9a2fcd541391")



def test_all_sigma_nonnegative_except_kf():
    for ps in PRESETS.values():
        for blk in (ps.los, ps.nlos):
            if blk is None:
                continue
            assert blk.sigma_sf_db >= 0
            assert blk.sigma_ds_ns >= 0
            for name in ("sigma_asd_deg", "sigma_asa_deg", "sigma_esd_deg", "sigma_esa_deg"):
                assert getattr(blk, name) >= 0
            for name in ("mu_ds_ns", "mu_asd_deg", "mu_asa_deg", "mu_esd_deg", "mu_esa_deg"):
                assert getattr(blk, name) >= 0
            assert math.isfinite(blk.a_db)
