"""Multipath data model and link budget, dataset CSV (de)serialization, and condition classification.

A dataset is a CSV with one row per (receiver, path) plus a JSON sidecar
``<name>.meta.json`` carrying the scenario name, TX position, link budget and
provenance. Receivers with no paths (outage) appear as a single row with an
empty interaction field and ``power_dbm = -INF``. In memory, a dataset is one
:class:`PathTable` plus per-receiver columns, conditions among them, classified
once from the code column; :class:`RxRecord` views are built only on demand.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
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
    """Write a table of cells as CSV with Unix line ends, as every table writer does."""
    with open(path, "w", newline="\n") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def dbm_to_mw(p_dbm: float) -> float:
    return 10.0 ** (p_dbm / 10.0)


def mw_to_dbm(p_mw: float) -> float:
    if p_mw <= 0.0:
        return -math.inf
    return 10.0 * math.log10(p_mw)


def interaction_code(tags: Iterable[Interaction]) -> str:
    """Canonical code of one path's tags: their letters joined by "+", e.g. "R+S"."""
    return "+".join(tag.value for tag in tags)


@dataclass(frozen=True, slots=True)
class MultipathComponent:
    """One ray path at a receiver, as a plain row; checked when it joins a PathTable."""

    power_dbm: float
    delay_ns: float
    aod_az_deg: float
    aod_el_deg: float
    aoa_az_deg: float
    aoa_el_deg: float
    interactions: tuple[Interaction, ...]


FLOAT_COLUMNS = ("power_dbm", "delay_ns", "aod_az_deg", "aod_el_deg", "aoa_az_deg", "aoa_el_deg")
_TAG_CODES = frozenset(tag.value for tag in Interaction)
_DIRECT = Interaction.DIRECT.value
# 10 ** (p / 10) overflows a double above ~3082.5 dBm and is subnormal below ~-3076.5 dBm,
# so inside this bound (in dBm, both signs) power_mw is a positive normal float.
_MAX_POWER_DBM = 3000.0


class PathTable:
    """Paths as read-only columns, checked once when built.

    Powers are in (-3000, 3000) dBm, so their milliwatts (``power_mw``, the
    unit every statistic uses) are positive normal floats. Azimuths live in (-180, 180], elevations
    in [-90, 90], delays are strictly positive nanoseconds. ``interactions``
    holds one :func:`interaction_code` per path, with "L" (direct) always alone.
    """

    __slots__ = (*FLOAT_COLUMNS, "interactions")

    def __init__(self, power_dbm, delay_ns, aod_az_deg, aod_el_deg, aoa_az_deg, aoa_el_deg,
                 interactions, where=lambda i: f"path {i}"):
        """Check copies of the columns; tags may carry spaces around them, and
        ``where(i)`` names row ``i`` in error messages."""
        cols = [np.array(c, dtype=float) for c in
                (power_dbm, delay_ns, aod_az_deg, aod_el_deg, aoa_az_deg, aoa_el_deg)]
        # Python strings, never numpy's str dtype, which drops trailing NULs ("R\0" would read as "R")
        raw = interactions.tolist() if isinstance(interactions, np.ndarray) else list(interactions)
        # the distinct codes in order of first appearance, so the first bad one is on the first bad row
        index = {code: j for j, code in enumerate(dict.fromkeys(raw))}
        codes = []
        for code in index:
            tags = [t.strip() for t in code.split("+")] if code.strip() else []
            unknown = [t for t in tags if t not in _TAG_CODES]
            if unknown or not tags or (_DIRECT in tags and tags != [_DIRECT]):
                row = where(raw.index(code))
                if unknown:
                    raise DatasetFormatError(f"{row}: unknown interaction tag {unknown[0]!r}")
                raise DatasetValidationError(f"{row}: interactions must be non-empty, Direct alone")
            codes.append("+".join(tags))

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
        cols.append(np.array(codes, dtype=str)[np.fromiter(map(index.__getitem__, raw), np.intp, len(raw))])
        for name, col in zip(self.__slots__, cols):
            col.flags.writeable = False
            setattr(self, name, col)

    def __getitem__(self, rows: slice) -> PathTable:
        """A read-only view of a slice of rows, not checked again."""
        out = object.__new__(PathTable)
        for name in self.__slots__:
            setattr(out, name, getattr(self, name)[rows])
        return out

    def __len__(self) -> int:
        return len(self.power_dbm)

    @property
    def power_mw(self) -> np.ndarray:
        """The powers in milliwatts, converted value by value with ``dbm_to_mw`` on each read."""
        return np.fromiter(map(dbm_to_mw, self.power_dbm.tolist()), dtype=float, count=len(self))

    def __iter__(self):
        columns = [getattr(self, name).tolist() for name in FLOAT_COLUMNS]
        for *values, code in zip(*columns, self.interactions.tolist()):
            yield MultipathComponent(*values, tuple(map(Interaction, code.split("+"))))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PathTable):
            return NotImplemented
        names = (*FLOAT_COLUMNS, "interactions")
        return all(np.array_equal(getattr(self, n), getattr(other, n)) for n in names)


def classify(paths: PathTable) -> Condition:
    """Propagation condition from the interaction codes alone: the one-record
    case of the condition column (see ``ScenarioDataset``)."""
    return _conditions(paths.interactions, np.array([0, len(paths)]))[0]


def _conditions(codes: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Condition of each record, whose codes are ``codes[offsets[i]:offsets[i + 1]]``: LOS when
    a pure direct path is present, DS when every path involves diffuse scattering, Outage when
    there are no paths, NLOS otherwise. Flags are counted by differences of exact cumulative sums."""
    flags = np.zeros((2, len(codes) + 1), dtype=np.int64)
    np.cumsum([codes == _DIRECT, np.char.find(codes, Interaction.DIFFUSE_SCATTER.value) >= 0], axis=1,
              out=flags[:, 1:])
    direct, scattered = flags[:, offsets[1:]] - flags[:, offsets[:-1]]
    counts = np.diff(offsets)
    return np.array(list(Condition), dtype=object)[np.select([counts == 0, direct > 0, scattered == counts], [3, 0, 2], 1)]


@dataclass(frozen=True, slots=True)
class RxRecord:
    """One receiver of a dataset, as a view: its paths are a slice of the
    dataset's table, and its distance and condition are the dataset's."""

    rx_id: int
    position_m: tuple[float, float, float]
    distance_3d_m: float
    paths: PathTable
    condition: Condition

    @property
    def total_power_mw(self) -> float:
        return math.fsum(self.paths.power_mw.tolist())


def make_record(
    rx_id: int,
    position_m: Sequence[float],
    tx_position_m: Sequence[float],
    paths: Iterable[MultipathComponent],
) -> RxRecord:
    """Build a record from path rows, checked as a table; the distance and
    condition are derived, not trusted."""
    rows = list(paths)
    table = PathTable(*([getattr(r, name) for r in rows] for name in FLOAT_COLUMNS),
                      [interaction_code(r.interactions) for r in rows], lambda i: f"rx {rx_id}")
    pos = tuple(float(v) for v in position_m)
    return RxRecord(rx_id, pos, math.dist(pos, tx_position_m), table, classify(table))


def total_powers_mw(power_mw: np.ndarray, offsets: np.ndarray) -> list[float]:
    """``math.fsum`` of each record's powers ``power_mw[offsets[i]:offsets[i + 1]]``; 0.0 for an outage."""
    ends = offsets.tolist()
    return [math.fsum(power_mw[lo:hi].tolist()) for lo, hi in zip(ends, ends[1:])]


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

    @classmethod
    def from_dict(cls, d: dict) -> LinkBudget:
        """The sidecar's ``link_budget`` object; an unknown key is a DatasetFormatError."""
        if not isinstance(d, dict):
            raise TypeError(f"link_budget must be a JSON object, got {d!r}")
        for key in d:
            if key not in cls.__dataclass_fields__:
                raise DatasetFormatError(f"unknown key link_budget.{key}")
        return cls(**d)


@dataclass(frozen=True, eq=False)
class ScenarioDataset:
    """One scenario's receivers as columns over one path table, plus the producing configuration.

    Receiver ``i`` is ``rx_ids[i]`` at ``positions[i]``; its ``counts[i]`` paths are rows
    ``offsets[i]:offsets[i + 1]`` of ``paths``. Its distance to the TX and its condition are
    derived once per dataset, and ``records`` are views built on first read.
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
        columns = (positions, counts, distances, offsets, _conditions(self.paths.interactions, offsets))
        for name, column in zip(("positions", "counts", "distances", "offsets", "conditions"), columns):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "rx_ids", ids)

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
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rx_id, position, lo, hi in zip(ds.rx_ids, ds.positions.tolist(), ends, ends[1:]):
            x, y, z = map(format_float, position)
            head = f"{rx_id},{x},{y},{z},"
            if lo == hi:
                fh.write(head + "-INF,0.0,0.0,0.0,0.0,0.0,\n")
                continue
            columns = [map(repr, getattr(paths, name)[lo:hi].tolist()) for name in FLOAT_COLUMNS]
            rows = map(",".join, zip(*columns, paths.interactions[lo:hi].tolist()))
            fh.write(head + ("\n" + head).join(rows) + "\n")
    meta = {
        "scenario_name": ds.scenario_name,
        "tx_position_m": list(ds.tx_position_m),
        "link_budget": ds.link_budget.to_dict(),
        "provenance": ds.provenance.value,
    }
    with open(meta_path(path), "w") as fh:
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
    try:
        meta = json.loads(mpath.read_text())
        if not isinstance(meta, dict):
            raise TypeError("expected a JSON object")
        scenario_name = str(meta["scenario_name"])
        tx = tuple(float(v) for v in meta["tx_position_m"])
        budget = LinkBudget.from_dict(meta.get("link_budget", {}))
        provenance = Provenance(meta.get("provenance", "Ingested"))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise DatasetFormatError(f"{mpath.name}: {exc}") from None
    if len(tx) != 3 or not all(map(math.isfinite, tx)):
        raise DatasetFormatError(f"{mpath.name}: tx_position_m must be 3 finite numbers, got {tx}")

    ids, positions, counts, columns, where = _load_rows(path, tx)
    paths = PathTable(*columns, where)
    del columns  # the table holds its own copies; free these before the per-receiver columns are derived
    return ScenarioDataset(scenario_name, tx, budget, ids, positions, paths, counts, provenance)


def _take(items, n: int, blank) -> list:
    """The next items up to and including the ``n``-th that is not ``blank``."""
    out, kept = [], 0
    while kept < n and (more := list(islice(items, n - kept))):
        out += more
        kept += len(more) - more.count(blank)
    return out


def _numbered(items: list, first: int, blank) -> tuple[list, list]:
    """The numbers (counted from ``first``) and the items that are not ``blank``."""
    numbers = range(first, first + len(items))
    if blank not in items:
        return list(numbers), items
    keep = [item != blank for item in items]
    return list(compress(numbers, keep)), list(compress(items, keep))


def _chunks(fh, header_lines: int):
    """The rows after the header, ``_CHUNK_ROWS`` non-blank rows at a time, as
    (line numbers, columns of cell strings) pairs; ``header_lines`` counts
    the file lines the header took.

    Rows are numbered from 2 (the header is line 1); a blank row takes a
    number but no place in a chunk. A chunk of plain lines, with no quote,
    CR or NUL (which csv before Python 3.11 rejects), none longer than the
    csv field limit and 11 cells on each, is cut with one ``str.split``. The
    first other chunk and all after it go through ``csv.reader``, the only
    reader of quoted cells, CR line ends and extra columns. Up to that chunk
    rows are lines, so chunk bounds and line numbers do not depend on the
    reader.
    """
    ncol, limit, line = len(CSV_COLUMNS), csv.field_size_limit(), 2
    while raw := _take(fh, _CHUNK_ROWS, "\n"):
        lines, plain = _numbered(raw, line, "\n")
        if not plain:
            return
        text = "".join(plain)
        if ('"' in text or "\r" in text or "\0" in text or max(map(len, plain)) > limit
                or set(map(str.count, plain, repeat(","))) != {ncol - 1}):
            yield from _csv_chunks(chain(raw, fh), line, header_lines + line - 2)
            return
        cells = text.replace("\n", ",").split(",")
        yield lines, [cells[c:len(plain) * ncol:ncol] for c in range(ncol)]
        line += len(raw)


def _csv_chunks(file_lines, line: int, lines_before: int):
    """``_chunks`` by ``csv.reader`` from row ``line`` on; ``lines_before``
    counts the file lines before it, so that csv errors name the file line."""
    ncol = len(CSV_COLUMNS)
    reader = csv.reader(file_lines)
    try:
        while taken := _take(reader, _CHUNK_ROWS, []):
            lines, rows = _numbered(taken, line, [])
            line += len(taken)
            if not rows:
                return
            if min(map(len, rows)) < ncol:
                at, row = next((at, row) for at, row in zip(lines, rows) if len(row) < ncol)
                raise DatasetFormatError(f"line {at}: expected {ncol} columns, got {len(row)}")
            yield lines, list(zip(*rows))  # zip stops at the shortest row: extra columns drop out
    except csv.Error as exc:
        raise DatasetFormatError(f"line {lines_before + reader.line_num}: {exc}") from None


def _load_rows(path: Path, tx_position_m: tuple[float, float, float]):
    """Parse and check the CSV rows, in chunks; no receiver may sit on the TX.

    Returns the records' rx ids, positions and path counts, the table columns
    with the path rows grouped by record (file order within a record), and a
    function naming the line and rx of a table row.
    """
    ncol = len(CSV_COLUMNS)
    lines, rx_ids, is_path = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0, bool)]
    tags: list[str] = []
    numbers = [np.empty((9, 0))]  # x, y, z, power, then path fields, which outage rows leave NaN
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DatasetFormatError("line 1: empty file, expected header")
            if tuple(h.strip() for h in header[:ncol]) != CSV_COLUMNS:
                raise DatasetFormatError("line 1: unexpected header columns")
            for chunk_lines, cols in _chunks(fh, reader.line_num):
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
                tags += cols[10]
        except csv.Error as exc:
            raise DatasetFormatError(f"line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DatasetFormatError(f"{path.name}: not UTF-8 text ({exc.reason})") from None
    x, y, z, power, *values = np.concatenate(numbers, axis=1)
    del numbers
    # rx ids too large for int64 make an object array of Python ints
    lines, rx_ids, is_path = map(np.concatenate, (lines, rx_ids, is_path))

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
    columns = [power[rows], *(v[rows] for v in values), [tags[i] for i in rows.tolist()]]
    return (ids, pos[first_row], counts, columns,
            lambda k: f"line {lines[rows[k]]}: rx {rx_ids[rows[k]]}")
