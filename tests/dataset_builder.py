"""Test-only builders and oracles: tables built from one tag code per path and
those codes read back, records and datasets built from path rows, a one-receiver
trace, the per-record path loss and condition, gen's dataset built one
realization at a time, and the whole-file dataset loader."""

import csv
import math
from dataclasses import replace
from itertools import compress
from typing import NamedTuple

import numpy as np

from idschan.extract import _path_loss_db
from idschan.genchan import RX_DISTANCE_M
from idschan.geometry import SPEED_OF_LIGHT
from idschan.pathdata import (CSV_COLUMNS, FLOAT_COLUMNS, Condition, DatasetFormatError, DatasetValidationError,
                              Interaction, PathTable, Provenance, RxRecord, ScenarioDataset, _chunks, _located,
                              _parse_column, _parse_repeated, mw_to_dbm)
from idschan.tracer import trace_scenario


def table_from_codes(power_dbm, delay_ns, aod_az_deg, aod_el_deg, aoa_az_deg, aoa_el_deg, codes, *where):
    """The PathTable of one tag code per path: each distinct code is passed once,
    numbered in order of first appearance."""
    codes = list(codes)
    number = {code: i for i, code in enumerate(dict.fromkeys(codes))}
    return PathTable(power_dbm, delay_ns, aod_az_deg, aod_el_deg, aoa_az_deg, aoa_el_deg, tuple(number),
                     np.array([number[code] for code in codes], dtype=np.intp), *where)


def path_codes(paths):
    """The tag code of each path of a table, in table order."""
    return [paths.codes[i] for i in paths.code_index.tolist()]


class PathRow(NamedTuple):
    """One path as a plain row: the six float columns, then its tags."""

    power_dbm: float
    delay_ns: float
    aod_az_deg: float
    aod_el_deg: float
    aoa_az_deg: float
    aoa_el_deg: float
    interactions: tuple[Interaction, ...]


def path_rows(paths):
    """The rows of a path table, in table order."""
    columns = [getattr(paths, name).tolist() for name in FLOAT_COLUMNS]
    return [PathRow(*values, tuple(map(Interaction, code.split("+"))))
            for *values, code in zip(*columns, path_codes(paths))]


def record_from_rows(rx_id, position_m, tx_position_m, rows):
    """One record of path rows, checked as a table, with its distance derived
    and its condition ``classify_per_record``'s. Unlike a dataset's receiver,
    it may sit on the TX."""
    rows = list(rows)
    table = table_from_codes(*([getattr(r, name) for r in rows] for name in FLOAT_COLUMNS),
                             ["+".join(tag.value for tag in r.interactions) for r in rows], lambda i: f"rx {rx_id}")
    pos = tuple(float(v) for v in position_m)
    return RxRecord(rx_id, pos, math.dist(pos, tx_position_m), table, classify_per_record(table))


def dataset_from_records(name, tx, budget, records, provenance=Provenance.SYNTHETIC):
    """The dataset of ``records`` in their order, their paths joined into one
    table; each record's distance and condition are derived again."""
    tables = [r.paths for r in records]
    columns = [np.concatenate([getattr(t, c) for t in tables] + [np.empty(0)]) for c in FLOAT_COLUMNS]
    codes = [code for t in tables for code in path_codes(t)]
    return ScenarioDataset(name, tx, budget, [r.rx_id for r in records], [r.position_m for r in records],
                           table_from_codes(*columns, codes), [len(t) for t in tables], provenance)


def trace_one_rx(scene, rx, budget):
    """The rows of every path that reaches receiver ``rx``, in face-sequence order."""
    return path_rows(trace_scenario(replace(scene, rx_grid=[rx]), budget).paths)


def path_loss_per_record(record, budget):
    """One record's loss in dB against its summed power, by the functions the path-loss fit uses."""
    return _path_loss_db(math.fsum(record.paths.power_mw.tolist()), budget)


def classify_per_record(paths):
    """The condition of one record's paths, as records were classified one by one."""
    if len(paths) == 0:
        return Condition.OUTAGE
    if Interaction.DIRECT.value in path_codes(paths):
        return Condition.LOS
    if all(Interaction.DIFFUSE_SCATTER.value in code for code in path_codes(paths)):
        return Condition.DS
    return Condition.NLOS


def records_of(ds, condition):
    """The record views of ``ds`` in ``condition``, in receiver order."""
    return [r for r in ds.records if r.condition is condition]


def realizations_to_dataset_per_realization(reals, name, budget):
    """gen's dataset built from a list of single realizations, each with 1-D
    per-tap arrays, by joining their columns: the oracle of the block export."""
    base_delay_ns = RX_DISTANCE_M / SPEED_OF_LIGHT * 1e9
    counts = np.array([len(real.delays_ns) for real in reals], dtype=np.intp)
    owner = np.repeat(np.arange(len(reals)), counts)
    powers, delays, *angles = (
        np.concatenate([getattr(real, field) for real in reals] + [np.empty(0)])
        for field in ("powers_lin", "delays_ns", "aod_az_deg", "aod_el_deg", "aoa_az_deg", "aoa_el_deg")
    )
    is_los = np.array([real.condition is Condition.LOS for real in reals], dtype=bool)
    tags = np.full(owner.size, Interaction.REFLECT.value)
    tags[(np.cumsum(counts) - counts)[is_los & (counts > 0)]] = Interaction.DIRECT.value
    paths = table_from_codes([mw_to_dbm(p) for p in powers.tolist()], delays + base_delay_ns, *angles, tags,
                             lambda k: f"rx {owner[k]}")
    return ScenarioDataset(name, (0.0, 0.0, 0.0), budget, range(len(reals)), [(RX_DISTANCE_M, 0.0, 0.0)] * len(reals),
                           paths, counts, Provenance.SYNTHETIC)


def load_rows_reference(path, tx_position_m):
    """The loader's rows as the whole-file loader read them: every chunk parsed into whole-file
    arrays, then each check over every row, then the rows reordered and the table built and
    checked from copies. Returns the records' rx ids, positions and path counts, and the table:
    the oracle of ``pathdata._load_rows``."""
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
    return ids, pos[first_row], counts, PathTable(*columns, lambda k: f"line {lines[rows[k]]}: rx {rx_ids[rows[k]]}")
