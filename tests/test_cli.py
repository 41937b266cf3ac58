import argparse
import csv
import json
import math

import pytest

from idschan import linksim
from idschan.cli import MAX_EBN0_POINTS, MAX_THREADS, build_parser, main, _parse_ebn0
from idschan.linksim import LinkBudget
from idschan.pathdata import Condition, load_dataset
from idschan.tracer import scene_from_json, trace_scenario

SCENE_CFG = {
    "name": "cli-box",
    "cabin_dims_m": [6.0, 4.0, 2.4],
    "walls": {"all": "metal_pec"},
    "tx_m": [0.2, 1.7, 2.1],
    "rx_grid": {"rows": 3, "heights_m": [0.7, 0.9], "lateral_step_m": 0.5,
                "lateral_margin_m": 0.25, "first_row_x_m": 2.0, "row_pitch_m": 1.2},
    "blockers": [
        {"min_m": [2.6, 1.0, 0.0], "max_m": [3.0, 3.0, 1.3], "material": "nylon", "label": "Seat"}
    ],
    "max_reflections": 1,
    "sensitivity_dbm": -110.0,
}


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


@pytest.fixture()
def scene_file(tmp_path):
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(SCENE_CFG))
    return p


class TestParseEbn0:
    def test_range(self):
        assert _parse_ebn0("0:2:6") == [0.0, 2.0, 4.0, 6.0]

    def test_comma_list(self):
        assert _parse_ebn0("1,3.5,9") == [1.0, 3.5, 9.0]

    def test_benchmark_grid(self):
        assert _parse_ebn0("0:2:26") == [float(x) for x in range(0, 27, 2)]

    def test_single_point_range(self):
        assert _parse_ebn0("5:1:5") == [5.0]

    @pytest.mark.parametrize("text", ["5:1:4.5", "5:1:0", "-2:0.5:-3"])
    def test_stop_below_start_rejected(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match=f"--ebn0={text} is a range with its stop below"):
            _parse_ebn0(text)

    def test_bad_step(self):
        with pytest.raises(argparse.ArgumentTypeError, match="step"):
            _parse_ebn0("0:0:6")

    @pytest.mark.parametrize("text", ["0:2:inf", "-inf:2:6", "nan:1:2", "0:nan:6", "0:inf:6"])
    def test_non_finite_range_rejected(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="finite"):
            _parse_ebn0(text)

    def test_grid_length_bounded(self):
        # 10,000 points of 0.25 dB stay below the 3000 dB bound
        assert len(_parse_ebn0(f"0:0.25:{(MAX_EBN0_POINTS - 1) / 4}")) == MAX_EBN0_POINTS
        for text in (f"0:1:{MAX_EBN0_POINTS}", "0:1e-5:1", ",".join(["1"] * (MAX_EBN0_POINTS + 1))):
            with pytest.raises(argparse.ArgumentTypeError, match=f"more than {MAX_EBN0_POINTS} points"):
                _parse_ebn0(text)
        assert len(_parse_ebn0(",".join(["1"] * MAX_EBN0_POINTS))) == MAX_EBN0_POINTS

    @pytest.mark.parametrize("text, value", [("0,2,nan", "nan"), ("nan", "nan"), ("0,3000.5", "3000.5"),
                                             ("inf,0", "inf"), ("0:1:3001", "3001.0")])
    def test_nan_or_above_the_bound_rejected_in_either_form(self, text, value):
        with pytest.raises(argparse.ArgumentTypeError, match=f"holds {value}; "):
            _parse_ebn0(text)

    def test_minus_inf_and_the_bound_accepted_in_a_comma_list(self):
        assert _parse_ebn0("-inf,30") == [-math.inf, 30.0]
        assert _parse_ebn0(f"{linksim.MAX_EBN0_DB:g}") == [linksim.MAX_EBN0_DB]

    @pytest.mark.parametrize("text", ["", ",", " , ,"])
    def test_empty_rejected(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="holds no value"):
            _parse_ebn0(text)

    @pytest.mark.parametrize("text", ["x", "0,2,x", "0:1", "0::6", "1:2:3:4", "0:2:x"])
    def test_malformed_rejected(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match=f"--ebn0={text} is not start:step:stop"):
            _parse_ebn0(text)


class TestTraceExtract:
    def test_trace_then_extract(self, tmp_path, scene_file, capsys):
        ds_path = tmp_path / "ds.csv"
        assert main(["trace", "--scene", str(scene_file), "--out", str(ds_path)]) == 0
        ds = load_dataset(ds_path)
        assert len(ds.records) == 48  # 3 rows x 2 heights x 8 lateral
        out = tmp_path / "params.csv"
        assert main(["extract", "--in", str(ds_path), "--out", str(out)]) == 0
        rows = read_rows(out)
        assert rows[0][0] == "param"
        ratios = read_rows(tmp_path / "params.ratios.csv")
        assert ratios[0] == ["scenario", "los", "nlos", "ds", "outage"]
        shares = [float(v) for v in ratios[1][1:]]
        assert math.isclose(sum(shares), 1.0, abs_tol=1e-12)

    def test_trace_deterministic_bytes(self, tmp_path, scene_file):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["trace", "--scene", str(scene_file), "--out", str(a)])
        main(["trace", "--scene", str(scene_file), "--out", str(b), "--threads", "4"])
        assert a.read_bytes() == b.read_bytes()

    def test_trace_preset_smoke(self, tmp_path):
        # order 0 keeps the full 2400-point grid cheap
        out = tmp_path / "bl.csv"
        assert main(["trace", "--preset", "EmV", "--out", str(out), "--max-reflections", "0"]) == 0
        ds = load_dataset(out)
        assert len(ds.records) == 2400

    def test_scene_carrier_is_traced_and_recorded(self, tmp_path):
        p = tmp_path / "scene60.json"
        p.write_text(json.dumps({**SCENE_CFG, "carrier_hz": 6e10}))
        out = tmp_path / "ds.csv"
        assert main(["trace", "--scene", str(p), "--out", str(out)]) == 0
        assert json.loads((tmp_path / "ds.meta.json").read_text())["link_budget"]["carrier_hz"] == 6e10
        scene, _ = scene_from_json(SCENE_CFG)
        at_60 = trace_scenario(scene, LinkBudget(carrier_hz=6e10, sensitivity_dbm=-110.0))
        at_28 = trace_scenario(scene, LinkBudget(sensitivity_dbm=-110.0))
        paths = [r.paths for r in load_dataset(out).records]
        assert paths == [r.paths for r in at_60.records]
        assert paths != [r.paths for r in at_28.records]

    def test_missing_args_error(self, tmp_path, capsys):
        rc = main(["trace", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, location", [
        ({"walls": ["metal_pec"]}, "walls"),
        ({"tx_m": [0.2, 1.7]}, "tx_m"),
        ({"rx_grid": {**SCENE_CFG["rx_grid"], "lateral_step_m": 0}}, "lateral_step_m"),
        ({"rx_grid": [3, 0.7]}, "rx_grid"),
        ({"blockers": [{"max_m": [3.0, 3.0, 1.3]}]}, "blockers[0].min_m"),
        ({"carrier_hz": float("nan")}, "carrier_hz"),
        ({"rx_grdi": {}}, "rx_grdi"),
    ])
    def test_malformed_scene_is_an_error_not_a_traceback(self, tmp_path, capsys, edit, location):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({**SCENE_CFG, **edit}))
        rc = main(["trace", "--scene", str(p), "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and location in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()


class TestGen:
    def test_gen_round_trips_through_loader(self, tmp_path):
        out = tmp_path / "gen.csv"
        rc = main(["gen", "--preset", "BL", "--cond", "LOS", "--count", "25",
                   "--taps", "8", "--seed", "7", "--out", str(out)])
        assert rc == 0
        ds = load_dataset(out)
        assert len(ds.records) == 25
        assert all(r.condition is Condition.LOS for r in ds.records)
        assert all(len(r.paths) == 8 for r in ds.records)

    def test_gen_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["gen", "--preset", "BL", "--count", "10", "--seed", "3", "--out", str(a)])
        main(["gen", "--preset", "BL", "--count", "10", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_gen_seed_env_fallback(self, tmp_path, monkeypatch):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        monkeypatch.setenv("IDS_CHAN_SEED", "99")
        main(["gen", "--preset", "BL", "--count", "5", "--out", str(a)])
        main(["gen", "--preset", "BL", "--count", "5", "--seed", "99", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_preset(self, tmp_path, capsys):
        rc = main(["gen", "--preset", "nope", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "unknown preset" in capsys.readouterr().err


class TestRssi:
    def test_rssi_csv(self, tmp_path, scene_file):
        ds_path = tmp_path / "ds.csv"
        main(["trace", "--scene", str(scene_file), "--out", str(ds_path)])
        out = tmp_path / "rssi.csv"
        assert main(["rssi", "--in", str(ds_path), "--out", str(out)]) == 0
        rows = read_rows(out)
        assert rows[0] == ["rx_id", "x", "y", "z", "condition", "rssi_dbm", "snr_db"]
        assert len(rows) == 49  # header + 48 receivers


class TestBer:
    def test_ber_csv_and_gap_line(self, tmp_path, capsys):
        out = tmp_path / "ber.csv"
        rc = main(["ber", "--presets", "BL,3GPP-InO", "--cond", "LOS",
                   "--ebn0", "0:4:8", "--bits", "20000", "--seed", "1", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert rows[0] == ["preset", "condition", "ebn0_db", "ber", "ci95", "n_bits"]
        assert len(rows) == 1 + 2 * 3
        captured = capsys.readouterr().out
        assert "gap at BER" in captured

    def test_block_bits_above_the_bound_is_an_error(self, tmp_path, capsys):
        # rejected as the command line is parsed (exit code 2), by the flag's name
        out = tmp_path / "ber.csv"
        with pytest.raises(SystemExit) as exc:
            main(["ber", "--presets", "BL", "--ebn0", "0", "--bits", "10", "--block-bits", "1000001",
                  "--out", str(out)])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "Traceback" not in err
        assert "argument --block-bits: --block-bits=1000001 is not an integer from 1 to 1000000" in err
        assert not out.exists()

    @pytest.mark.parametrize("presets, named", [
        ("BL,BL", "BL"), ("BL,bl", "BL"), ("3GPP-InO,CV,3gpp-ino", "3GPP-InO"), ("EmV,em-v", "EmV"),
    ])
    def test_repeated_preset_is_an_error(self, tmp_path, capsys, monkeypatch, presets, named):
        # a repeat after alias and case resolution is rejected before any point runs
        monkeypatch.setattr(linksim, "ber_bpsk", pytest.fail)
        out = tmp_path / "ber.csv"
        rc = main(["ber", "--presets", presets, "--ebn0", "0", "--bits", "10", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith(f"error: --presets names {named} twice")
        assert not out.exists()

    @pytest.mark.parametrize("ebn0", [
        "0:2:inf", "nan", "inf", "0,nan", "4000", f"0:1:{MAX_EBN0_POINTS}", "0,2,4,6,8,10,nan", "0,4000", "",
        pytest.param(",".join(["0"] * (MAX_EBN0_POINTS + 1)), id="comma-list-past-the-point-bound"),
    ])
    def test_bad_ebn0_is_an_error(self, tmp_path, capsys, monkeypatch, ebn0):
        # either form is rejected as the command line is parsed (exit code 2), before any point runs
        monkeypatch.setattr(linksim, "ber_bpsk", pytest.fail)
        out = tmp_path / "ber.csv"
        with pytest.raises(SystemExit) as exc:
            main(["ber", "--presets", "BL", "--ebn0", ebn0, "--bits", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and f"argument --ebn0: --ebn0={ebn0} " in err and "Traceback" not in err
        assert not out.exists()

    def test_descending_ebn0_range_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "ber.csv"
        with pytest.raises(SystemExit) as exc:
            main(["ber", "--presets", "BL", "--ebn0", "5:1:0", "--bits", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "--ebn0=5:1:0 is a range with its stop below its start" in capsys.readouterr().err
        assert not out.exists()

    def test_gap_from_minus_inf_unavailable(self, tmp_path, capsys):
        out = tmp_path / "ber.csv"
        rc = main(["ber", "--presets", "BL,3GPP-InO", "--ebn0=-inf,30", "--bits", "1000",
                   "--target-ber", "0.3", "--out", str(out)])
        assert rc == 0
        assert "gap at BER 0.3: BL vs 3GPP-InO: unavailable" in capsys.readouterr().out

    def test_unwritable_out_names_the_file(self, tmp_path, capsys):
        out = tmp_path / "missing" / "dir" / "ber.csv"
        rc = main(["ber", "--presets", "BL", "--ebn0", "0", "--bits", "100", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and str(out) in err and "No such file" in err

    def test_ber_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["ber", "--presets", "BL", "--cond", "NLOS", "--ebn0", "0:4:4",
                "--bits", "10000", "--seed", "5"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestPresets:
    def test_presets_table_values(self, tmp_path):
        out = tmp_path / "presets.csv"
        assert main(["presets", "--out", str(out)]) == 0
        rows = read_rows(out)
        header = rows[0]
        col = header.index("BL:LOS")
        by_param = {r[0]: r for r in rows[1:]}
        assert float(by_param["A_dB"][col]) == 58.49
        assert float(by_param["B"][col]) == 1.45
        assert float(by_param["sigma_SF_dB"][col]) == 5.58
        assert float(by_param["mu_KF_dB"][header.index("3GPP-InO:LOS")]) == 7.0

    def test_presets_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["presets", "--out", str(a)])
        main(["presets", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestIngestSidecar:
    HEADER = ("rx_id,rx_x_m,rx_y_m,rx_z_m,power_dbm,delay_ns,aod_az_deg,aod_el_deg,"
              "aoa_az_deg,aoa_el_deg,interactions\n")
    ROWS = ("0,1.0,0.0,1.0,-50.0,5.0,0.0,0.0,0.0,0.0,L\n"
            "1,2.0,0.0,1.0,-56.0,8.0,0.0,0.0,0.0,0.0,L\n")

    def write(self, tmp_path, budget, rows=ROWS):
        p = tmp_path / "in.csv"
        p.write_text(self.HEADER + rows)
        meta = {"scenario_name": "x", "tx_position_m": [0, 0, 1], "link_budget": budget}
        (tmp_path / "in.meta.json").write_text(json.dumps(meta))
        return p

    def test_budget_number_as_string_extracts(self, tmp_path):
        p = self.write(tmp_path, {"tx_power_dbm": "20"})
        out = tmp_path / "params.csv"
        assert main(["extract", "--in", str(p), "--out", str(out)]) == 0
        label, a_db = read_rows(out)[1][:2]
        assert label == "A_dB" and float(a_db) == pytest.approx(70.0)

    def test_unknown_budget_key_rejected_by_extract(self, tmp_path, capsys):
        p = self.write(tmp_path, {"tx_power_dBm": 30})
        out = tmp_path / "params.csv"
        assert main(["extract", "--in", str(p), "--out", str(out)]) == 2
        assert "link_budget.tx_power_dBm" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_bandwidth_rejected_by_rssi(self, tmp_path, capsys):
        p = self.write(tmp_path, {"bandwidth_hz": float("nan")})
        out = tmp_path / "rssi.csv"
        assert main(["rssi", "--in", str(p), "--out", str(out)]) == 2
        assert "in.meta.json" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_rx_coordinate_rejected_by_extract(self, tmp_path, capsys):
        rows = self.ROWS + "2,nan,0.0,1.0,-60.0,9.0,0.0,0.0,0.0,0.0,L\n"
        p = self.write(tmp_path, {}, rows)
        assert main(["extract", "--in", str(p), "--out", str(tmp_path / "p.csv")]) == 2
        assert "line 4" in capsys.readouterr().err


class TestFlagBounds:
    """Out-of-range numbers are rejected when the command line is parsed, before
    any output is written, with a message that names the flag and the value."""

    def rejected(self, argv, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument {flag}: {flag}={value} " in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "0.7", "inf", "x"])
    def test_target_ber_outside_zero_to_half(self, tmp_path, capsys, value):
        out = tmp_path / "ber.csv"
        argv = ["ber", "--presets", "3GPP-InO,CV", "--ebn0", "0,60", "--bits", "1000",
                f"--target-ber={value}", "--out", str(out)]
        self.rejected(argv, "--target-ber", value, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0.5", "1e-3", "1e-300"])
    def test_target_ber_inside(self, value):
        args = build_parser().parse_args(["ber", "--presets", "BL", "--target-ber", value, "--out", "x"])
        assert args.target_ber == float(value)

    @pytest.mark.parametrize("command", [["gen", "--preset", "BL"], ["ber", "--presets", "BL"]])
    @pytest.mark.parametrize("value", ["-1", "-5", "1.5"])
    def test_negative_seed(self, tmp_path, capsys, command, value):
        out = tmp_path / "x.csv"
        self.rejected([*command, f"--seed={value}", "--out", str(out)], "--seed", value, capsys)
        assert not out.exists()

    def test_negative_seed_from_the_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("IDS_CHAN_SEED", "-1")
        out = tmp_path / "x.csv"
        assert main(["gen", "--preset", "BL", "--count", "2", "--out", str(out)]) == 2
        assert "error: IDS_CHAN_SEED=-1 is not an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["ber", "--presets", "BL"], ["trace", "--preset", "BL"]])
    @pytest.mark.parametrize("value", ["0", "-3", str(MAX_THREADS + 1), "10**6"])
    def test_threads_outside_the_bound(self, tmp_path, capsys, command, value):
        out = tmp_path / "x.csv"
        self.rejected([*command, f"--threads={value}", "--out", str(out)], "--threads", value, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--bits", "0"), ("--bits", "-5"), ("--bits", "1.5"), ("--bits", "x"),
        ("--block-bits", "0"), ("--block-bits", "-1"), ("--block-bits", "1000001"), ("--block-bits", "1e3"),
    ])
    def test_bits_outside_the_bound(self, tmp_path, capsys, monkeypatch, flag, value):
        monkeypatch.setattr(linksim, "ber_bpsk", pytest.fail)
        out = tmp_path / "ber.csv"
        self.rejected(["ber", "--presets", "BL", "--ebn0", "0", f"{flag}={value}", "--out", str(out)],
                      flag, value, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("flag, dest, value", [
        ("--bits", "bits", 1), ("--bits", "bits", 10**12), ("--block-bits", "block_bits", 1),
        ("--block-bits", "block_bits", 1_000_000),
    ])
    def test_bits_inside_the_bound(self, flag, dest, value):
        args = build_parser().parse_args(["ber", "--presets", "BL", flag, str(value), "--out", "x"])
        assert getattr(args, dest) == value

    def test_max_reflections_above_the_bound_is_an_error(self, tmp_path, scene_file, capsys):
        out = tmp_path / "x.csv"
        for source in (["--preset", "BL"], ["--scene", str(scene_file)]):
            self.rejected(["trace", *source, "--max-reflections", "12", "--out", str(out)],
                          "--max-reflections", "12", capsys)
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (["--count", "-3"], "-3"),
        (["--count", "0"], "0"),
        (["--count", "100001"], "100001"),
        (["--count", "2", "--taps", "101"], "101"),
        (["--count", "2", "--taps", "1"], "1"),
    ])
    def test_count_and_taps_bounded(self, tmp_path, capsys, flags, named):
        out = tmp_path / "x.csv"
        self.rejected(["gen", "--preset", "BL", *flags, "--out", str(out)], flags[-2], named, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--max-reflections", "-1"), ("--max-reflections", "7"), ("--max-reflections", "1.5"),
        ("--sensitivity", "nan"), ("--sensitivity", "inf"), ("--sensitivity", "-inf"), ("--sensitivity", "x"),
    ])
    def test_trace_flags_outside_the_bound(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.csv"
        self.rejected(["trace", "--preset", "BL", f"{flag}={value}", "--out", str(out)], flag, value, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("argv, dest, value", [
        (["trace", "--preset", "BL", "--max-reflections", "0"], "max_reflections", 0),
        (["trace", "--preset", "BL", "--max-reflections", "6"], "max_reflections", 6),
        (["trace", "--preset", "BL", "--sensitivity", "-90.5"], "sensitivity", -90.5),
        (["gen", "--preset", "BL", "--count", "1"], "count", 1),
        (["gen", "--preset", "BL", "--count", "100000"], "count", 100_000),
        (["gen", "--preset", "BL", "--taps", "2"], "taps", 2),
        (["gen", "--preset", "BL", "--taps", "100"], "taps", 100),
    ])
    def test_trace_and_gen_flags_inside_the_bound(self, argv, dest, value):
        assert getattr(build_parser().parse_args([*argv, "--out", "x"]), dest) == value

    @pytest.mark.parametrize("command, flag, value, dest, parsed", [
        (["ber", "--presets", "BL"], "--ebn0", "-4:2:0", "ebn0", [-4.0, -2.0, 0.0]),
        (["trace", "--preset", "BL"], "--sensitivity", "-1e2", "sensitivity", -100.0),
    ])
    def test_negative_value_needs_the_equals_form(self, tmp_path, capsys, command, flag, value, dest, parsed):
        """argparse reads a separate token that starts with "-" and is not a plain
        integer or decimal as a flag; joined with "=" it is the flag's value."""
        out = tmp_path / "x.csv"
        assert getattr(build_parser().parse_args([*command, f"{flag}={value}", "--out", str(out)]), dest) == parsed
        with pytest.raises(SystemExit) as exc:
            main([*command, flag, value, "--out", str(out)])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument {flag}: expected one argument" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["ber", "--presets", "BL"], ["trace", "--preset", "BL"]])
    @pytest.mark.parametrize("value", [1, 4, MAX_THREADS])
    def test_threads_inside_the_bound(self, command, value):
        # parsed only: no pool is started
        args = build_parser().parse_args([*command, "--threads", str(value), "--out", "x"])
        assert args.threads == value
