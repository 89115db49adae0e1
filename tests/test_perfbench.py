"""The benchmark under perfbench/ keeps working against the package: every
binding its tracer patches resolves and is restored, and its self-test of
the output checks passes.  Both only read perfbench/."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from segsim import percolation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_layer_binding():
    tracing = load_tracing()
    bindings = [(importlib.import_module(mod), name.split(".", 1)[1])
                for name, modules, _ in tracing.LAYERS for mod in modules]
    originals = [getattr(mod, attr) for mod, attr in bindings]
    lattice = percolation.SiteLattice(open=np.ones((3, 4), bool), p=1.0)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(getattr(mod, attr) is not fn for (mod, attr), fn in zip(bindings, originals))
        radii = percolation.cluster_radii(lattice)
    assert np.array_equal(radii, percolation.cluster_radii(lattice))
    assert [s["name"] for s in tracer.spans] == ["percolation.cluster_radii", "unionfind.label_grid_components"]
    assert all(getattr(mod, attr) is fn for (mod, attr), fn in zip(bindings, originals))


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
