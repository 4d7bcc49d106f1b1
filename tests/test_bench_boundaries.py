"""The benchmark's tracer wraps package functions by name; they must keep resolving.

``perfbench/spans.py`` is read, never changed: its ``BOUNDARIES`` list names
the functions and methods ``--trace 1`` wraps, and the workloads read the
``lru_cache`` counters of ``canonicalize`` and ``nf_automaton``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.BOUNDARIES


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in boundaries()])
def test_boundary_resolves(module_name, attr):
    owner = importlib.import_module(f"sessauto.{module_name}")
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name).__dict__
        assert callable(owner[attr])
    else:
        assert callable(getattr(owner, attr))


@pytest.mark.parametrize("name", ["canonicalize", "nf_automaton"])
def test_cached_constructions_expose_cache_info(name):
    fn = getattr(importlib.import_module("sessauto.canonical"), name)
    assert callable(fn.cache_info)
