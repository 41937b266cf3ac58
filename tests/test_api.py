"""The package's exported names: ``from idschan import *`` runs, every name in
``__all__`` resolves, and the per-record layer that no command calls is gone."""

import importlib
import inspect

import pytest

import idschan
from idschan import extract
from idschan.pathdata import LinkBudget, PathTable, RxRecord

# the RSSI map, the path-loss fit and the totals are reductions of the dataset's columns
DELETED = ("MultipathComponent", "make_record", "classify", "trace_link", "path_loss_of", "interaction_code",
           "_is_number", "RssiPoint", "total_powers_mw", "_fit_path_loss")


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from idschan import *", namespace)
    assert set(idschan.__all__) <= namespace.keys()


def test_every_exported_name_resolves_once():
    assert len(set(idschan.__all__)) == len(idschan.__all__)
    missing = [name for name in idschan.__all__ if not hasattr(idschan, name)]
    assert missing == []


@pytest.mark.parametrize("module", ["idschan", "idschan.pathdata", "idschan.tracer", "idschan.extract",
                                    "idschan.linksim"])
def test_deleted_names_are_gone(module):
    assert [name for name in DELETED if hasattr(importlib.import_module(module), name)] == []


def test_extract_takes_milliwatts_from_the_dataset_only():
    """Each statistic reads ``ds.power_mw`` and ``ds.total_power_mw``; none is handed them."""
    takers = [name for name, func in inspect.getmembers(extract, inspect.isfunction)
              if func.__module__ == extract.__name__
              and {"power_mw", "total_power_mw"} & set(inspect.signature(func).parameters)]
    assert takers == []


def test_deleted_record_members_are_gone():
    assert not hasattr(PathTable, "__iter__")
    assert not hasattr(RxRecord, "total_power_mw")
    assert "interactions" not in PathTable.__slots__  # one code per distinct tag string, plus a per-path index
    assert not hasattr(LinkBudget, "from_dict")  # both JSON documents read a budget with one function


def test_a_table_takes_slices_only():
    table = PathTable([-50.0, -60.0], [5.0, 6.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], ("L", "R"), [0, 1])
    assert table[1:].code_index.tolist() == [1] and table[1:].codes == ("L", "R")
    # without __iter__, Python would iterate by int indices; each must be refused, not give a 0-d view
    for index in (0, -1, [0, 1]):
        with pytest.raises(TypeError, match="takes a slice of rows"):
            table[index]
    with pytest.raises(TypeError, match="takes a slice of rows"):
        list(table)
