"""Every name a crskit module lists in ``__all__`` exists in that module."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import crskit

MODULES = sorted(info.name for info in pkgutil.iter_modules(crskit.__path__, "crskit."))


def test_library_modules_are_found():
    assert {"crskit.geometry", "crskit.selection", "crskit.dataio"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
