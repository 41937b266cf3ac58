"""Multipath data model and link budget, dataset CSV (de)serialization, and condition classification.

A dataset is a CSV with one row per (receiver, path) plus a JSON sidecar
``<name>.meta.json`` carrying the scenario name, TX position, link budget and
provenance. Receivers with no paths (outage) appear as a single row with an
empty interaction field and ``power_dbm = -INF``. In memory, a dataset is one
:class:`PathTable` plus per-receiver columns, conditions among them, classified
once from the code column; milliwatt columns and :class:`RxRecord` views are built
on first read. Every file is UTF-8 with ``\n`` line ends, whatever the locale.
"""

from __future__ import annotations

import csv
import json
import math
import reprlib
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from functools import cached_property
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


class Interaction(Enum):
    """Per-path interaction tags; values are the single-letter CSV codes."""

    DIRECT = "L"
    REFLECT = "R"
    DIFFRACT = "D"
    DIFFUSE_SCATTER = "S"


class Condition(Enum):
    LOS = "LOS"
    NLOS = "NLOS"
    DS = "DS"
    OUTAGE = "Outage"


class Provenance(Enum):
    SYNTHETIC = "Synthetic"
    INGESTED = "Ingested"


class DatasetFormatError(ValueError):
    """Malformed dataset file (bad row, bad sidecar); message names the location."""


class DatasetValidationError(ValueError):
    """Well-formed file whose values violate a data-model invariant."""


def format_float(x: float) -> str:
    """Shortest text that reads back as the same float, with "-INF" for minus
    infinity (the outage power); every CSV writer uses it. ``save_dataset``
    writes path cells with bare ``repr``, the same text for the finite values
    a PathTable holds."""
    return "-INF" if x == -math.inf else repr(float(x))


def write_rows(path: str | Path, rows: Iterable[Sequence]) -> None:
    """Write a table of cells as UTF-8 CSV with Unix line ends, as every table writer does."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def dbm_to_mw(p_dbm: float) -> float:
    return 10.0 ** (p_dbm / 10.0)


def mw_to_dbm(p_mw: float) -> float:
    if p_mw <= 0.0:
        return -math.inf
    return 10.0 * math.log10(p_mw)


FLOAT_COLUMNS = ("power_dbm", "delay_ns", "aod_az_deg", "aod_el_deg", "aoa_az_deg", "aoa_el_deg")
_INDEXED_COLUMNS = (*FLOAT_COLUMNS, "code_index")  # a PathTable's per-path columns
_TAG_CODES = frozenset(tag.value for tag in Interaction)
_DIRECT = Interaction.DIRECT.value
# 10 ** (p / 10) overflows a double above ~3082.5 dBm and is subnormal below ~-3076.5 dBm,
# so inside this bound (in dBm, both signs) power_mw is a positive normal float.
_MAX_POWER_DBM = 3000.0


class PathTable:
    """Paths as read-only columns, checked once when built.

    Powers are in (-3000, 3000) dBm, so their milliwatts (``power_mw``, the
    unit every statistic uses) are positive normal floats. Azimuths live in (-180, 180], elevations
    in [-90, 90], delays are strictly positive nanoseconds. Path ``i`` has the code ``codes[code_index[i]]``:
    its tags joined by "+" (e.g. "R+S"), "L" (direct) always alone. ``codes`` holds each code once.
    """

    __slots__ = (*_INDEXED_COLUMNS, "codes")

    def __init__(self, power_dbm, delay_ns, aod_az_deg, aod_el_deg, aoa_az_deg, aoa_el_deg,
                 codes, code_index, where=lambda i: f"path {i}"):
        """Check copies of the columns; ``codes`` may carry spaces around tags, repeat a
        code or hold codes no row uses, and ``where(i)`` names row ``i`` in error messages."""
        cols = [np.array(c, dtype=float) for c in
                (power_dbm, delay_ns, aod_az_deg, aod_el_deg, aoa_az_deg, aoa_el_deg)]
        index = np.asarray(code_index) if len(code_index) else np.empty(0, dtype=np.uint8)
        if index.ndim != 1 or index.dtype.kind not in "iu" or any(c.shape != index.shape for c in cols):
            raise ValueError(f"columns must be 1-D and code_index integers, all of one length: got shapes "
                             f"{[c.shape for c in cols]} and code_index {index.shape} {index.dtype}")
        if index.size and (index.min() < 0 or index.max() >= len(codes)):
            raise ValueError(f"code_index must be from 0 to {len(codes) - 1}")
        # each given code's first row, len(index) if unused: in that order, the first bad code has the first bad row
        first = np.full(len(codes), len(index))
        np.minimum.at(first, index, np.arange(len(index)))
        canonical, lut = {}, np.zeros(len(codes), dtype=np.intp)
        for j in np.argsort(first, kind="stable")[:np.count_nonzero(first < len(index))].tolist():
            tags = [t.strip() for t in codes[j].split("+")] if codes[j].strip() else []
            unknown = [t for t in tags if t not in _TAG_CODES]
            if unknown:
                raise DatasetFormatError(f"{where(int(first[j]))}: unknown interaction tag {unknown[0]!r}")
            if not tags or (_DIRECT in tags and tags != [_DIRECT]):
                raise DatasetValidationError(f"{where(int(first[j]))}: interactions must be non-empty, Direct alone")
            lut[j] = canonical.setdefault("+".join(tags), len(canonical))

        power, delay, aod_az, aod_el, aoa_az, aoa_el = cols
        azimuth, elevation = "in (-180, 180]", "in [-90, 90]"
        checks = [  # (rows that pass, rule), one per float column
            (np.abs(power) < _MAX_POWER_DBM, "in (-3000, 3000) dBm"),
            ((delay > 0.0) & np.isfinite(delay), "> 0"),
            ((aod_az > -180.0) & (aod_az <= 180.0), azimuth),
            ((aod_el >= -90.0) & (aod_el <= 90.0), elevation),
            ((aoa_az > -180.0) & (aoa_az <= 180.0), azimuth),
            ((aoa_el >= -90.0) & (aoa_el <= 90.0), elevation),
        ]
        good = np.logical_and.reduce([ok for ok, _ in checks])
        if not good.all():
            i = int(np.argmin(good))
            k = next(k for k, (ok, _) in enumerate(checks) if not ok[i])
            raise DatasetValidationError(
                f"{where(i)}: {FLOAT_COLUMNS[k]}={float(cols[k][i])!r}, must be {checks[k][1]}"
            )
        cols.append(lut.astype(np.min_scalar_type(max(len(canonical) - 1, 0)))[index])
        for name, col in zip(_INDEXED_COLUMNS, cols):
            col.flags.writeable = False
            setattr(self, name, col)
        self.codes = tuple(canonical)

    def __getitem__(self, rows: slice) -> PathTable:
        """A read-only view of a slice of rows, not checked again, holding its table's ``codes``. Only a
        slice: a table has no row objects, so an index (and so iteration) is a TypeError."""
        if not isinstance(rows, slice):
            raise TypeError(f"a PathTable takes a slice of rows, not {type(rows).__name__}")
        out = object.__new__(PathTable)
        for name in _INDEXED_COLUMNS:
            setattr(out, name, getattr(self, name)[rows])
        out.codes = self.codes
        return out

    def __len__(self) -> int:
        return len(self.power_dbm)

    @property
    def power_mw(self) -> np.ndarray:
        """The powers in milliwatts, converted value by value with ``dbm_to_mw`` on each read."""
        return np.fromiter(map(dbm_to_mw, self.power_dbm.tolist()), dtype=float, count=len(self))

    @property
    def direct(self) -> np.ndarray:
        """Whether each path is the direct path, the code "L", tested once per code."""
        return np.array([code == _DIRECT for code in self.codes], dtype=bool)[self.code_index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PathTable):
            return NotImplemented
        same = (np.array_equal(getattr(self, n), getattr(other, n)) for n in FLOAT_COLUMNS)
        mine = np.array([self.codes.index(c) if c in self.codes else -1 for c in other.codes], dtype=np.intp)
        return np.array_equal(self.code_index, mine[other.code_index]) and all(same)


def _conditions(paths: PathTable, offsets: np.ndarray) -> np.ndarray:
    """Condition of each record, whose paths are ``paths[offsets[i]:offsets[i + 1]]``: LOS when
    a pure direct path is present, DS when every path involves diffuse scattering, Outage when
    there are no paths, NLOS otherwise. Flags are counted by differences of exact cumulative sums."""
    code_scattered = np.array([Interaction.DIFFUSE_SCATTER.value in code for code in paths.codes], dtype=bool)
    flags = np.zeros((2, len(paths) + 1), dtype=np.int64)
    np.cumsum([paths.direct, code_scattered[paths.code_index]], axis=1, out=flags[:, 1:])
    direct, scattered = flags[:, offsets[1:]] - flags[:, offsets[:-1]]
    counts = np.diff(offsets)
    return np.array(list(Condition), dtype=object)[np.select([counts == 0, direct > 0, scattered == counts], [3, 0, 2], 1)]


# Kept, with ``paths``, only because the benchmark's per-layer mode reads them (ROADMAP item 10).
@dataclass(frozen=True, slots=True)
class RxRecord:
    """One receiver of a dataset, as a view: its paths are a slice of the
    dataset's table, and its distance and condition are the dataset's."""

    rx_id: int
    position_m: tuple[float, float, float]
    distance_3d_m: float
    paths: PathTable
    condition: Condition


@dataclass(frozen=True)
class LinkBudget:
    """The radio link of a dataset, as finite floats; defaults are the 28 GHz cabin setup.
    ``carrier_hz`` sets the traced wavelength; ``line_loss_db`` is recorded, never applied."""

    tx_power_dbm: float = 20.0
    gain_tx_dbi: float = 0.0
    gain_rx_dbi: float = 0.0
    noise_figure_db: float = 10.0
    bandwidth_hz: float = 1e9
    carrier_hz: float = 28e9
    line_loss_db: float = 0.0
    sensitivity_dbm: float = -120.0

    def __post_init__(self):
        for f in fields(self):
            value = float(getattr(self, f.name))
            if not math.isfinite(value):
                raise ValueError(f"link budget {f.name}={value!r} is not finite")
            if f.name in ("bandwidth_hz", "carrier_hz") and not value > 0.0:
                raise ValueError(f"link budget {f.name}={value!r} must be positive")
            object.__setattr__(self, f.name, value)

    @property
    def lossless_rx_dbm(self) -> float:
        """Power received over a lossless link: transmit power plus both antenna gains."""
        return self.tx_power_dbm + self.gain_tx_dbi + self.gain_rx_dbi

    def to_dict(self) -> dict:
        return asdict(self)


# The one reader of JSON values, for both documents: the scene config and the dataset sidecar.
_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string",
               list: "a list", tuple: "a non-empty list of finite numbers", 3: "a list of 3 finite numbers"}
_LINK_BUDGET_KEYS = frozenset(f.name for f in fields(LinkBudget))


def _at(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


def _coerce(value, kind, where: str):
    """A JSON value as ``kind``: int, float (finite), bool, str (UTF-8 encodable), list, tuple
    (a non-empty list of finite floats), 3 (a list of three), or a set of the keys an object may
    have (dict: any keys). A ValueError names ``where``, which is "" for the document itself, and
    quotes the value cut short by ``reprlib``."""
    if isinstance(kind, frozenset) or kind is dict:
        ok = isinstance(value, dict)
        for key in value if ok and kind is not dict else ():
            if key not in kind:
                raise ValueError(f"unknown key {_at(where, key)}")
    elif kind in (tuple, 3):
        ok = isinstance(value, (list, tuple)) and len(value) > 0 and kind in (tuple, len(value))
        value = tuple(_coerce(v, float, f"{where}[{i}]") for i, v in enumerate(value)) if ok else value
    elif kind in (int, float):
        ok = isinstance(value, (int, kind)) and not isinstance(value, bool) and (
            kind is int or -sys.float_info.max <= value <= sys.float_info.max)
        value = kind(value) if ok else value
    else:
        ok = isinstance(value, (list, tuple) if kind is list else kind)
        if ok and kind is str and value != value.encode("utf-8", "replace").decode("utf-8"):  # a lone surrogate
            raise ValueError(f"{where or 'the document'} must be a string UTF-8 can encode, got {reprlib.repr(value)}")
    if not ok:
        raise ValueError(f"{where or 'the document'} must be {_KIND_NAMES.get(kind, 'an object')}, "
                         f"got {reprlib.repr(value)}")
    return value


def _json_get(obj: dict, where: str, key: str, kind, default=...):
    """``obj[key]`` as ``kind``, or ``default`` when absent; required without a default."""
    if key in obj:
        return _coerce(obj[key], kind, _at(where, key))
    if default is ...:
        raise ValueError(f"{_at(where, key)} is missing")
    return default


@contextmanager
def _located(where: str, error: type[ValueError] = ValueError):
    """Raise a rejection, by a constructor or on reading a document, as ``error``, prefixed
    with ``where`` unless that is "". Reading fails with an OSError, a RecursionError (nesting
    too deep) or a ValueError (JSON syntax, bytes that are not UTF-8, an integer too long)."""
    try:
        yield
    except (ValueError, OSError, RecursionError) as exc:
        raise error(f"{where}: {exc}" if where else str(exc)) from None


def _read_json(path: str | Path):
    """The JSON document in the UTF-8 file at ``path``; raises what ``_located`` catches."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _budget_from_json(obj: dict, where: str) -> LinkBudget:
    """A LinkBudget from the LinkBudget keys of a JSON object, each a finite number; a key
    that is absent keeps its default, and the object's other keys are not read."""
    return LinkBudget(**{f.name: _json_get(obj, where, f.name, float) for f in fields(LinkBudget) if f.name in obj})


@dataclass(frozen=True, eq=False)
class ScenarioDataset:
    """One scenario's receivers as columns over one path table, plus the producing configuration.

    Receiver ``i`` is ``rx_ids[i]`` at ``positions[i]``; its ``counts[i]`` paths are rows
    ``offsets[i]:offsets[i + 1]`` of ``paths``. Its distance to the TX and its condition are
    derived once per dataset; ``power_mw``, ``total_power_mw`` and ``records`` on first read.
    """

    scenario_name: str
    tx_position_m: tuple[float, float, float]
    link_budget: LinkBudget
    rx_ids: Sequence[int]
    positions: Sequence[Sequence[float]]
    paths: PathTable
    counts: Sequence[int]
    provenance: Provenance
    distances: np.ndarray = field(init=False)
    offsets: np.ndarray = field(init=False)
    conditions: np.ndarray = field(init=False)

    def __post_init__(self):
        ids = tuple(self.rx_ids)
        counts = np.array(self.counts, dtype=np.int64).reshape(len(ids))
        if len(set(ids)) < len(ids):
            raise DatasetValidationError(f"duplicate rx_id {next(i for i, n in Counter(ids).items() if n > 1)}")
        if (counts < 0).any() or counts.sum() != len(self.paths):
            raise DatasetValidationError(f"path counts sum to {counts.sum()}, the table holds {len(self.paths)}")
        positions = np.array(self.positions, dtype=float).reshape(len(ids), 3)
        distances = np.array([math.dist(p, self.tx_position_m) for p in positions.tolist()])
        good = np.isfinite(distances) & (distances > 0.0)  # as a Scene and the loader require
        if not good.all():
            i = int(np.argmin(good))
            raise DatasetValidationError(f"rx {ids[i]}: TX-RX distance {distances[i]} is not positive and finite")
        offsets = np.concatenate([[0], np.cumsum(counts)])
        columns = (positions, counts, distances, offsets, _conditions(self.paths, offsets))
        for name, column in zip(("positions", "counts", "distances", "offsets", "conditions"), columns):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "rx_ids", ids)

    @cached_property
    def power_mw(self) -> np.ndarray:
        """Each path's milliwatts, ``paths.power_mw`` read once."""
        column = self.paths.power_mw
        column.flags.writeable = False
        return column

    @cached_property
    def total_power_mw(self) -> np.ndarray:
        """Each receiver's ``math.fsum`` of its paths' milliwatts; 0.0 for an outage."""
        ends, power_mw = self.offsets.tolist(), self.power_mw
        column = np.array([math.fsum(power_mw[lo:hi].tolist()) for lo, hi in zip(ends, ends[1:])], dtype=float)
        column.flags.writeable = False
        return column

    # Kept only because the benchmark's per-layer mode reads it (ROADMAP item 10).
    @cached_property
    def records(self) -> tuple[RxRecord, ...]:
        """One read-only view per receiver, in receiver order."""
        ends = self.offsets.tolist()
        return tuple(RxRecord(rx_id, tuple(position), distance, self.paths[lo:hi], condition)
                     for rx_id, position, distance, lo, hi, condition in zip(
                         self.rx_ids, self.positions.tolist(), self.distances.tolist(), ends, ends[1:], self.conditions))


CSV_COLUMNS = ("rx_id", "rx_x_m", "rx_y_m", "rx_z_m", *FLOAT_COLUMNS, "interactions")

# Rows parsed at a time; bounds the CSV tokens held in memory at once.
_CHUNK_ROWS = 2048


def meta_path(csv_path: str | Path) -> Path:
    return Path(csv_path).with_suffix(".meta.json")


def save_dataset(ds: ScenarioDataset, path: str | Path) -> None:
    """Write the CSV and its JSON sidecar; round-trips losslessly.

    Each record's rows go out as one string. No cell needs quoting: path
    values are finite floats and codes hold only tag letters and "+".
    """
    path = Path(path)
    paths, ends = ds.paths, ds.offsets.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rx_id, position, lo, hi in zip(ds.rx_ids, ds.positions.tolist(), ends, ends[1:]):
            x, y, z = map(format_float, position)
            head = f"{rx_id},{x},{y},{z},"
            if lo == hi:
                fh.write(head + "-INF,0.0,0.0,0.0,0.0,0.0,\n")
                continue
            columns = [map(repr, getattr(paths, name)[lo:hi].tolist()) for name in FLOAT_COLUMNS]
            rows = map(",".join, zip(*columns, map(paths.codes.__getitem__, paths.code_index[lo:hi].tolist())))
            fh.write(head + ("\n" + head).join(rows) + "\n")
    meta = {
        "scenario_name": ds.scenario_name,
        "tx_position_m": list(ds.tx_position_m),
        "link_budget": ds.link_budget.to_dict(),
        "provenance": ds.provenance.value,
    }
    with open(meta_path(path), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def _parse_column(tokens: Sequence[str], kind: type, name: str, lines: Sequence[int]) -> list:
    """Parse one CSV column with ``int`` or ``float``; errors name the first bad line."""
    try:
        return list(map(kind, tokens))
    except ValueError:
        for line, token in zip(lines, tokens):
            try:
                kind(token)
            except ValueError:
                raise DatasetFormatError(f"line {line}: bad {name} value {token!r}") from None
        raise


def _parse_repeated(tokens: Sequence[str], kind: type, name: str, lines: Sequence[int]) -> list:
    """``_parse_column`` for a column of few distinct tokens, each parsed once:
    ``int`` and ``float`` depend on the text alone, so the values are the same."""
    distinct = dict.fromkeys(tokens)
    try:
        values = dict(zip(distinct, map(kind, distinct)))
    except ValueError:
        return _parse_column(tokens, kind, name, lines)  # raises, naming the first bad line
    return list(map(values.__getitem__, tokens))


def load_dataset(path: str | Path) -> ScenarioDataset:
    """Read a dataset CSV + sidecar, recomputing every record's condition.

    Any condition column in third-party exports is ignored; classification is
    always recomputed from the interaction tags. Rows of one receiver need
    not be adjacent; its paths keep their file order.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetFormatError(f"no such dataset file: {path}")
    mpath = meta_path(path)
    if not mpath.exists():
        raise DatasetFormatError(f"missing sidecar {mpath.name} next to {path.name}")
    with _located(mpath.name, DatasetFormatError):
        meta = _coerce(_read_json(mpath), dict, "")  # other top-level keys are not read
        scenario_name = _json_get(meta, "", "scenario_name", str)
        tx = _json_get(meta, "", "tx_position_m", 3)
        budget = _budget_from_json(_json_get(meta, "", "link_budget", _LINK_BUDGET_KEYS, {}), "link_budget")
        provenance = Provenance(_json_get(meta, "", "provenance", str, Provenance.INGESTED.value))

    ids, positions, counts, columns, where = _load_rows(path, tx)
    paths = PathTable(*columns, where)
    del columns  # the table holds its own copies; free these before the per-receiver columns are derived
    return ScenarioDataset(scenario_name, tx, budget, ids, positions, paths, counts, provenance)


def _chunks(fh, line: int):
    """The rows from file line ``line`` on, ``_CHUNK_ROWS`` rows at a time with
    blank rows counted, as (line numbers, columns of cell strings) pairs; a row's
    number is the file line it starts on, and blank rows are left out.

    A row is one line unless a quoted cell holds a newline. A chunk of plain
    lines, with no quote, CR or NUL (which csv before Python 3.11 rejects), none
    longer than the csv field limit and 11 cells on each, is cut with one
    ``str.split``. The first other chunk and all after it go through
    ``csv.reader``, the only reader of quoted cells, CR line ends and extra
    columns. Up to that chunk rows are lines, so chunk bounds and line numbers
    do not depend on the reader.
    """
    ncol, limit = len(CSV_COLUMNS), csv.field_size_limit()
    while raw := list(islice(fh, _CHUNK_ROWS)):
        lines, plain = range(line, line + len(raw)), raw
        if "\n" in raw:  # blank rows
            keep = [row != "\n" for row in raw]
            lines, plain = list(compress(lines, keep)), list(compress(raw, keep))
        text = "".join(plain)
        if ('"' in text or "\r" in text or "\0" in text or max(map(len, raw)) > limit
                or set(map(str.count, plain, repeat(","))) != {ncol - 1}):
            yield from _csv_chunks(chain(raw, fh), line)
            return
        cells = text.replace("\n", ",").split(",")
        yield lines, [cells[c:len(plain) * ncol:ncol] for c in range(ncol)]
        line += len(raw)


def _csv_chunks(file_lines, line: int):
    """``_chunks`` by ``csv.reader``, for the rows from file line ``line`` on."""
    ncol, reader = len(CSV_COLUMNS), csv.reader(file_lines)

    def numbered():
        """(the file line the row starts on, the row) of each row; a csv error names that line."""
        start = line
        try:
            for row in reader:
                yield start, row
                start = line + reader.line_num
        except csv.Error as exc:
            raise DatasetFormatError(f"line {start}: {exc}") from None

    rows = numbered()
    while taken := list(islice(rows, _CHUNK_ROWS)):
        chunk = [(at, row) for at, row in taken if row]  # blank rows count toward the chunk, then drop out
        if short := next(((at, row) for at, row in chunk if len(row) < ncol), None):
            raise DatasetFormatError(f"line {short[0]}: expected {ncol} columns, got {len(short[1])}")
        if chunk:
            lines, cells = zip(*chunk)
            yield lines, list(zip(*cells))  # zip stops at the shortest row: extra columns drop out


def _load_rows(path: Path, tx_position_m: tuple[float, float, float]):
    """Parse and check the CSV rows, in chunks; no receiver may sit on the TX.

    Returns the records' rx ids, positions and path counts, the table's columns,
    codes and code index with the path rows grouped by record (file order within
    a record), and a function naming the line and rx of a table row.
    """
    ncol = len(CSV_COLUMNS)
    lines, rx_ids, is_path = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0, bool)]
    codes: dict[str, int] = {}  # each distinct tag cell, numbered in order of first appearance
    tags = [np.empty(0, dtype=np.uint8)]  # the number of each row's tag cell
    numbers = [np.empty((9, 0))]  # x, y, z, power, then path fields, which outage rows leave NaN
    with _located(path.name, DatasetFormatError):  # a directory, say, or no permission to read
        fh = open(path, encoding="utf-8", newline="")
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DatasetFormatError("line 1: empty file, expected header")
            if tuple(h.strip() for h in header[:ncol]) != CSV_COLUMNS:
                raise DatasetFormatError("line 1: unexpected header columns")
            for chunk_lines, cols in _chunks(fh, reader.line_num + 1):
                rx_ids.append(np.array(_parse_repeated(cols[0], int, "rx_id", chunk_lines)))
                has_path = np.fromiter(map(bool, map(str.strip, cols[10])), bool, len(chunk_lines))
                selector = has_path.tolist()  # compress reads a list faster than numpy bools
                path_lines = list(compress(chunk_lines, selector))
                block = np.full((9, len(chunk_lines)), math.nan)
                for c in range(1, 10):
                    if c < 4:  # a receiver's position repeats on each of its rows
                        block[c - 1] = _parse_repeated(cols[c], float, CSV_COLUMNS[c], chunk_lines)
                    elif c == 4:
                        block[c - 1] = _parse_column(cols[c], float, CSV_COLUMNS[c], chunk_lines)
                    else:  # outage rows leave the path fields NaN
                        block[c - 1, has_path] = _parse_column(list(compress(cols[c], selector)), float,
                                                               CSV_COLUMNS[c], path_lines)
                numbers.append(block)
                lines.append(np.array(chunk_lines))
                is_path.append(has_path)
                tags.append(np.array(_parse_repeated(cols[10], lambda code: codes.setdefault(code, len(codes)),
                                                     CSV_COLUMNS[10], chunk_lines), np.min_scalar_type(len(codes))))
        except csv.Error as exc:  # in the header; _chunks names the line of a row's error
            raise DatasetFormatError(f"line 1: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DatasetFormatError(f"{path.name}: not UTF-8 text ({exc.reason})") from None
    x, y, z, power, *values = np.concatenate(numbers, axis=1)
    del numbers
    # rx ids too large for int64 make an object array of Python ints
    lines, rx_ids, is_path, tags = map(np.concatenate, (lines, rx_ids, is_path, tags))

    def reject(bad: np.ndarray, error: type, message: str) -> None:
        """Raise for the first flagged row, named by its line and rx id."""
        if bad.any():
            i = int(np.argmax(bad))
            raise error(f"line {lines[i]}: rx {rx_ids[i]}: {message}")

    pos = np.stack([x, y, z], axis=1)
    reject(~np.isfinite(pos).all(axis=1), DatasetValidationError, "non-finite position")
    # records in order of first appearance; rec[i] is the record of row i
    ids, first_row, inverse = np.unique(rx_ids, return_index=True, return_inverse=True)
    order = np.argsort(first_row)
    ids, first_row, rec = ids[order].tolist(), first_row[order], np.argsort(order)[inverse]
    reject((pos != pos[first_row][rec]).any(axis=1), DatasetValidationError,
           "inconsistent positions across rows")
    reject((pos[first_row] == tx_position_m).all(axis=1)[rec], DatasetValidationError,
           "position coincides with the TX")
    reject(~is_path & (power != -math.inf), DatasetFormatError,
           "empty interactions requires power_dbm = -INF")
    counts = np.bincount(rec[is_path], minlength=len(ids))
    reject(~is_path & (counts[rec] > 0), DatasetValidationError, "outage row mixed with path rows")

    rows = np.flatnonzero(is_path)
    rows = rows[np.argsort(rec[rows], kind="stable")]
    columns = [power[rows], *(v[rows] for v in values), tuple(codes), tags[rows]]
    return (ids, pos[first_row], counts, columns,
            lambda k: f"line {lines[rows[k]]}: rx {rx_ids[rows[k]]}")
