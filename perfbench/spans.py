"""Per-layer tracing of idschan from outside the program.

Each public function at a module boundary is replaced, at the name the
calling module looks it up by (``idschan.tracer.segments_hit_boxes``,
``idschan.extract.k_factor``, ...), with a wrapper that records a span and
work counts. Spans are kept in memory and reduced to per-layer numbers when
the traced pass ends; nothing inside ``src/`` is changed.

A span opened on a thread with no open span of its own (a worker of the
tracer's thread pool) is parented to the innermost span open on the thread
that started recording, so a multi-threaded trace nests under
``tracer.trace_scenario``. A span's self time is its duration minus the part
of its interval covered by the union of its children's intervals; self times
of spans on different threads add up, so a layer's ``self_s`` is thread time.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

MB = 1e6


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self):
        # [name, thread id, start, end, parent index]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stacks: dict[int, list[int]] = {}
        self._root_thread = threading.get_ident()
        self._lock = threading.Lock()

    def _open(self, name: str) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                root = self._stacks.get(self._root_thread)
                parent = root[-1] if root else None
            index = len(self.spans)
            self.spans.append([name, tid, 0.0, None, parent])
            stack.append(index)
        self.spans[index][2] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        with self._lock:
            self.spans[index][3] = end
            self._stacks[threading.get_ident()].pop()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                with self._lock:
                    count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = []
        for index, (_, _, start, end, _) in enumerate(self.spans):
            covered = 0.0
            run_start = run_end = None
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, start), min(c_end, end)
                if c_end <= c_start:
                    continue
                if run_end is None or c_start > run_end:
                    if run_end is not None:
                        covered += run_end - run_start
                    run_start, run_end = c_start, c_end
                else:
                    run_end = max(run_end, c_end)
            if run_end is not None:
                covered += run_end - run_start
            out.append(end - start - covered)
        return out

    def tree(self) -> dict[str, dict[str, float]]:
        """Spans grouped by their ancestry path: calls, total and self seconds."""
        selfs = self.self_times()
        paths: list[str] = []
        out: dict[str, dict[str, float]] = {}
        for (name, _, start, end, parent), self_s in zip(self.spans, selfs):
            path = name if parent is None else f"{paths[parent]}/{name}"
            paths.append(path)
            node = out.setdefault(path, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            node["calls"] += 1
            node["total_s"] += end - start
            node["self_s"] += self_s
        return out


# --------------------------------------------------------------------------
# counters, computed from argument shapes and results outside the span
# --------------------------------------------------------------------------


def _rows(ds) -> int:
    return sum(max(1, len(rec.paths)) for rec in ds.records)


def _file_mb(csv_path) -> float:
    from idschan.pathdata import meta_path

    return (os.path.getsize(csv_path) + os.path.getsize(meta_path(csv_path))) / MB


def _count_slab(counts, args, kwargs, hit):
    segments = np.atleast_2d(args[0]).shape[0]
    boxes = np.shape(args[2])[0]
    counts["geometry.segments_hit_boxes.segments"] += segments
    counts["geometry.segments_hit_boxes.pair_tests"] += segments * boxes
    counts["geometry.segments_hit_boxes.hits"] += int(np.count_nonzero(hit))
    # t1, t2 and their elementwise min and max: four dense (S, M, 3) float64 arrays.
    counts["geometry.segments_hit_boxes.mb_computed"] += 4 * segments * boxes * 3 * 8 / MB


def _count_trace(counts, args, kwargs, ds):
    from idschan.tracer import reflection_sequences

    scene = args[0]
    sequences = len(reflection_sequences(scene.max_reflections))
    counts["tracer.sequences"] += sequences
    counts["tracer.candidates"] += sequences * scene.rx_grid.shape[0]
    counts["tracer.paths_kept"] += sum(len(rec.paths) for rec in ds.records)


def _count_save(counts, args, kwargs, result):
    counts["pathdata.save_dataset.rows"] += _rows(args[0])
    counts["pathdata.save_dataset.mb"] += _file_mb(args[1])


def _count_load(counts, args, kwargs, ds):
    counts["pathdata.load_dataset.rows"] += _rows(ds)
    counts["pathdata.load_dataset.mb"] += _file_mb(args[0])


def _count_bits(counts, args, kwargs, result):
    counts["linksim.ber.bits"] += result.n_bits


# (module the caller looks the name up in, attribute, layer name, counter)
PATCHES = (
    ("idschan.tracer", "segments_hit_boxes", "geometry.segments_hit_boxes", _count_slab),
    ("idschan.tracer", "wrap_azimuth_deg", "geometry.wrap_azimuth_deg", None),
    ("idschan.genchan", "wrap_azimuth_deg", "geometry.wrap_azimuth_deg", None),
    ("idschan.tracer", "spherical_angles_deg", "geometry.spherical_angles_deg", None),
    ("idschan.tracer", "trace_scenario", "tracer.trace_scenario", _count_trace),
    ("idschan.pathdata", "save_dataset", "pathdata.save_dataset", _count_save),
    ("idschan.pathdata", "load_dataset", "pathdata.load_dataset", _count_load),
    ("idschan.extract", "summarize", "extract.summarize", None),
    ("idschan.extract", "fit_path_loss", "extract.fit_path_loss", None),
    ("idschan.extract", "k_factor", "extract.k_factor", None),
    ("idschan.extract", "rms_delay_spread", "extract.rms_delay_spread", None),
    ("idschan.extract", "angular_spread", "extract.angular_spread", None),
    ("idschan.params", "write_params_csv", "params.write_params_csv", None),
    ("idschan.genchan", "draw_realization", "genchan.draw_realization", None),
    ("idschan.genchan", "realizations_to_dataset", "genchan.realizations_to_dataset", None),
    ("idschan.linksim", "ber_sweep", "linksim.ber_sweep", None),
    ("idschan.linksim", "ber_bpsk", "linksim.ber_bpsk", _count_bits),
    ("idschan.linksim", "rssi_map", "linksim.rssi_map", None),
    ("idschan.cli", "cmd_trace", "cli.trace", None),
    ("idschan.cli", "cmd_extract", "cli.extract", None),
    ("idschan.cli", "cmd_gen", "cli.gen", None),
    ("idschan.cli", "cmd_rssi", "cli.rssi", None),
    ("idschan.cli", "cmd_ber", "cli.ber", None),
)


@contextmanager
def traced(recorder: Recorder):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for module_name, attr, layer, count in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(layer, original, count))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

_CALLS_AND_SELF = (
    "geometry.segments_hit_boxes",
    "geometry.wrap_azimuth_deg",
    "geometry.spherical_angles_deg",
    "pathdata.save_dataset",
    "pathdata.load_dataset",
    "extract.fit_path_loss",
    "extract.k_factor",
    "extract.rms_delay_spread",
    "extract.angular_spread",
    "genchan.draw_realization",
    "linksim.ber_bpsk",
    "linksim.rssi_map",
)
_SELF_ONLY = (
    "tracer.trace_scenario",
    "extract.summarize",
    "params.write_params_csv",
    "genchan.realizations_to_dataset",
    "linksim.ber_sweep",
    "cli.trace",
    "cli.extract",
    "cli.gen",
    "cli.rssi",
    "cli.ber",
)
_COUNTS = (
    ("geometry.segments_hit_boxes.segments", "count"),
    ("geometry.segments_hit_boxes.pair_tests", "count"),
    ("geometry.segments_hit_boxes.mb_computed", "MB"),
    ("tracer.sequences", "count"),
    ("tracer.candidates", "count"),
    ("tracer.paths_kept", "count"),
    ("pathdata.save_dataset.rows", "count"),
    ("pathdata.save_dataset.mb", "MB"),
    ("pathdata.load_dataset.rows", "count"),
    ("pathdata.load_dataset.mb", "MB"),
    ("linksim.ber.bits", "count"),
)


def layer_metrics(recorder: Recorder) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced pass, as name -> (value, unit).

    Layers the workload does not reach report zero calls, time and counts.
    """
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for (name, *_), s in zip(recorder.spans, recorder.self_times()):
        calls[name] += 1
        self_s[name] += s
    total_self = sum(self_s.values())
    c = recorder.counts

    out: dict[str, tuple[float, str]] = {}
    for layer in _CALLS_AND_SELF:
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    for layer in _SELF_ONLY:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    for name, unit in _COUNTS:
        out[name] = (c[name], unit)
    segments = c["geometry.segments_hit_boxes.segments"]
    out["geometry.segments_hit_boxes.hit_ratio"] = (
        c["geometry.segments_hit_boxes.hits"] / segments if segments else 0.0,
        "ratio",
    )
    out["geometry.segments_hit_boxes.self_share"] = (
        self_s["geometry.segments_hit_boxes"] / total_self if total_self else 0.0,
        "ratio",
    )
    candidates = c["tracer.candidates"]
    out["tracer.keep_ratio"] = (c["tracer.paths_kept"] / candidates if candidates else 0.0, "ratio")
    return out
