"""Test-only helpers: a dataset built from records, and the per-record
classification that the dataset's condition column must reproduce."""

import numpy as np

from idschan.pathdata import FLOAT_COLUMNS, Condition, Interaction, PathTable, Provenance, ScenarioDataset


def dataset_from_records(name, tx, budget, records, provenance=Provenance.SYNTHETIC):
    """The dataset of ``records`` in their order, their paths joined into one
    table; each record's distance and condition are derived again."""
    tables = [r.paths for r in records]
    columns = [np.concatenate([getattr(t, c) for t in tables] + [np.empty(0)]) for c in FLOAT_COLUMNS]
    codes = [code for t in tables for code in t.interactions.tolist()]
    return ScenarioDataset(name, tx, budget, [r.rx_id for r in records], [r.position_m for r in records],
                           PathTable(*columns, codes), [len(t) for t in tables], provenance)


def classify_per_record(paths):
    """The condition of one record's paths, as records were classified one by one."""
    if len(paths) == 0:
        return Condition.OUTAGE
    if (paths.interactions == Interaction.DIRECT.value).any():
        return Condition.LOS
    if all(Interaction.DIFFUSE_SCATTER.value in code for code in paths.interactions.tolist()):
        return Condition.DS
    return Condition.NLOS


def records_of(ds, condition):
    """The record views of ``ds`` in ``condition``, in receiver order."""
    return [r for r in ds.records if r.condition is condition]
