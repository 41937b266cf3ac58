"""The package's exported names: ``from idschan import *`` runs, every name in
``__all__`` resolves, and the per-record layer that no command calls is gone."""

import importlib

import pytest

import idschan
from idschan.pathdata import PathTable, RxRecord

DELETED = ("MultipathComponent", "make_record", "classify", "trace_link", "path_loss_of", "interaction_code")


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from idschan import *", namespace)
    assert set(idschan.__all__) <= namespace.keys()


def test_every_exported_name_resolves_once():
    assert len(set(idschan.__all__)) == len(idschan.__all__)
    missing = [name for name in idschan.__all__ if not hasattr(idschan, name)]
    assert missing == []


@pytest.mark.parametrize("module", ["idschan", "idschan.pathdata", "idschan.tracer", "idschan.extract"])
def test_deleted_names_are_gone(module):
    assert [name for name in DELETED if hasattr(importlib.import_module(module), name)] == []


def test_deleted_record_members_are_gone():
    assert not hasattr(PathTable, "__iter__")
    assert not hasattr(RxRecord, "total_power_mw")
    assert "interactions" not in PathTable.__slots__  # one code per distinct tag string, plus a per-path index


def test_a_table_takes_slices_only():
    table = PathTable([-50.0, -60.0], [5.0, 6.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], ("L", "R"), [0, 1])
    assert table[1:].code_index.tolist() == [1] and table[1:].codes == ("L", "R")
    # without __iter__, Python would iterate by int indices; each must be refused, not give a 0-d view
    for index in (0, -1, [0, 1]):
        with pytest.raises(TypeError, match="takes a slice of rows"):
            table[index]
    with pytest.raises(TypeError, match="takes a slice of rows"):
        list(table)
