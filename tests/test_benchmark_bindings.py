"""The library names the benchmark binds to must exist.

perfbench/spans.py wraps the functions listed in its SPANNED table by
module and attribute, and perfbench/worker.py records
icsie.KERNEL_BACKEND.  Renaming or deleting one of them breaks the
benchmark; this test makes it break the test suite first.
"""

import functools
import importlib
from pathlib import Path

import icsie

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    assert spans.SPANNED
    for modname, attr, metric in spans.SPANNED:
        owner = importlib.import_module(modname)
        fn = functools.reduce(getattr, attr.split("."), owner)
        assert callable(fn), (modname, attr, metric)


def test_kernel_backend_is_recorded():
    assert isinstance(icsie.KERNEL_BACKEND, str)
