"""What the benchmark takes from the package by name still exists.

``bench/layers.py`` wraps package functions by (module, name), and
``bench/workloads.py`` builds its instances through the package's
generators and reads fields of their results, so a rename there breaks the
benchmark.  Both files are loaded from their paths and left unchanged.
"""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from ffactors import cli, constructions, graph, instances

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_layer_bindings_resolve():
    layers = _load("layers")
    keys = [*layers.LAYERS, *layers.CALL_COUNTS, *layers.BINDING_COUNTS]
    assert len(keys) > 20
    for key in keys:
        module = importlib.import_module(f"ffactors.{key[0]}")
        assert callable(getattr(module, key[1], None)), key
        # a binding count also names the module whose binding it counts
        for binder in key[2:]:
            importlib.import_module(f"ffactors.{binder}")


@pytest.mark.parametrize("workload", ["solve", "audit", "main_theorem", "invariants"])
def test_workloads_build(workload, tmp_path):
    workloads = _load("workloads")
    assert workload in workloads.WORKLOADS
    ff = SimpleNamespace(cli=cli, graph=graph, instances=instances,
                         constructions=constructions)
    rounds = workloads.build(ff, workload, 1, 1, str(tmp_path))
    ops = [op for ops in rounds for op in ops]
    assert ops
    for op in ops:
        assert Path(op.instance.path).read_text() == op.instance.text
        assert cli.build_parser().parse_args(op.argv).command == op.argv[0]
