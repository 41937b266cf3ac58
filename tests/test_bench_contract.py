"""The per-layer mode of the benchmark patches functions by module attribute.

``perfbench/spans.py`` replaces each ``(module, attr)`` of its ``PATCHES`` with
a timing wrapper, and some wrappers count work from the call's arguments and
result; a rename, a move or a signature change inside the package would break
that mode without failing the untraced benchmark. The names are checked here,
and a tiny run of every command checks that every counter runs.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from idschan import cli
from idschan.tracer import reflection_sequences

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, *_ in _spans().PATCHES])
def test_every_patched_name_resolves(module, attr):
    assert module.startswith("idschan.")
    assert callable(getattr(importlib.import_module(module), attr))


def test_every_counter_runs_on_a_tiny_pipeline(tmp_path):
    spans = _spans()
    blockers = [{"min_m": [1.8, 1.0, 0.0], "max_m": [2.2, 2.0, 1.2]},
                {"min_m": [4.0, 2.5, 0.0], "max_m": [4.5, 3.5, 1.2]}]
    scene = {"cabin_dims_m": [6.0, 4.0, 2.4], "max_reflections": 1, "blockers": blockers,
             "rx_grid": {"rows": 3, "heights_m": [0.7, 1.0], "lateral_step_m": 1.0, "lateral_margin_m": 0.5}}
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    commands = [
        ["trace", "--scene", "scene.json", "--out", "trace.csv"],
        ["gen", "--preset", "BL", "--cond", "LOS", "--count", "20", "--seed", "1", "--out", "gen.csv"],
        ["extract", "--in", "gen.csv", "--out", "params.csv"],
        ["rssi", "--in", "trace.csv", "--out", "rssi.csv"],
        ["ber", "--presets", "BL", "--ebn0", "0,10", "--bits", "1000", "--out", "ber.csv"],
    ]
    with spans.traced(spans.Recorder()) as recorder:
        for argv in commands:
            argv = [str(tmp_path / a) if a.endswith((".csv", ".json")) else a for a in argv]
            assert cli.main(argv) == 0, argv
    counts = recorder.counts

    segments = counts["geometry.segments_hit_boxes.segments"]
    assert segments > 0
    # the slab counter reads the boxes as the call's third positional argument
    assert counts["geometry.segments_hit_boxes.pair_tests"] == segments * len(blockers)
    assert counts["tracer.sequences"] == len(reflection_sequences(1))
    assert counts["tracer.candidates"] > 0 and counts["tracer.paths_kept"] > 0
    for name in ("pathdata.save_dataset.rows", "pathdata.save_dataset.mb",
                 "pathdata.load_dataset.rows", "pathdata.load_dataset.mb", "linksim.ber.bits"):
        assert counts[name] > 0, name
    layers = {name for name, *_ in recorder.spans}
    assert {"cli.trace", "cli.gen", "cli.extract", "cli.rssi", "cli.ber"} <= layers
