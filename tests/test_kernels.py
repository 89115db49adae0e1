"""The compiled C kernels: warning-free source, build cache, argument
checks, a sanitizer run, and bit-equality of the flip kernel with the python
reference executor on edge cases (the region kernels are compared with their
numpy reference in test_regions.py)."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import segsim
import segsim.dynamics as dyn
from segsim import GridConfig, _kernels, new_random
from segsim.dynamics import RunLimits, run_to_termination
from segsim.rng import STREAM_DYNAMICS, generator


def test_source_compiles_without_warnings(tmp_path):
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("gcc not found on PATH")
    proc = subprocess.run(
        [gcc, "-Wall", "-Wextra", "-Werror", "-O2", "-shared", "-fPIC",
         "-x", "c", "-", "-o", str(tmp_path / "kernel.so")],
        input=_kernels.C_SOURCE, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_build_goes_to_the_cache_dir(tmp_path, monkeypatch):
    if shutil.which("gcc") is None:
        pytest.skip("gcc not found on PATH")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    fn, error = _kernels._load()
    assert fn is not None and error is None
    built = list((tmp_path / "segsim").iterdir())
    assert [p.suffix for p in built] == [".so"]  # no temp file left behind
    mtime = built[0].stat().st_mtime_ns
    fn, error = _kernels._load()  # a hit loads the same file, no rebuild
    assert fn is not None and built[0].stat().st_mtime_ns == mtime


def test_missing_compiler_is_reported(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_kernels.shutil, "which", lambda name: None)
    fn, error = _kernels._load()
    assert fn is None
    assert "gcc not found" in error


def test_unwritable_cache_falls_back_to_private_temp_dir(tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr(_kernels.tempfile, "gettempdir", lambda: str(tmp_path))
    path = _kernels._cache_dir()
    assert path == str(tmp_path / f"segsim-{os.getuid()}")
    assert os.stat(path).st_mode & 0o777 == 0o700
    os.chmod(path, 0o777)  # another user could plant a library here
    with pytest.raises(OSError, match="not a private directory"):
        _kernels._cache_dir()


def test_wrapper_rejects_short_buffers():
    if _kernels.run_chunk is None:
        pytest.skip(_kernels.load_error)
    n = 7
    types = np.ones(n * n, np.int8)
    sc = np.zeros(n * n, np.int32)
    pos = np.full(n * n, -1, np.int32)
    cells = np.zeros(n * n - 1, np.int64)  # one short
    batch = np.zeros(4)
    rec = np.zeros(1, np.int64)
    with pytest.raises(ValueError, match=r"n\*n"):
        _kernels.run_chunk(types, sc, pos, cells, 0, n, 3, 49, 22, 0, 0.0, 0, 10, None,
                           batch, batch, 0, rec, np.zeros(1), rec, rec, False, rec,
                           np.zeros(1, np.int32))
    cells = np.zeros(n * n, np.int64)
    with pytest.raises(ValueError, match="2w\\+1"):
        _kernels.run_chunk(types, sc, pos, cells, 0, n, 4, 81, 40, 0, 0.0, 0, 10, None,
                           batch, batch, 0, rec, np.zeros(1), rec, rec, False, rec,
                           np.zeros(1, np.int32))
    with pytest.raises(ValueError, match="audit"):
        _kernels.run_chunk(types, sc, pos, cells, 0, n, 3, 49, 22, 0, 0.0, 0, 10, None,
                           batch, batch, 0, rec, np.zeros(1), rec, rec, True, rec,
                           np.zeros(1, np.int32))


def test_region_wrappers_reject_bad_tables():
    if _kernels.radius_pass is None:
        pytest.skip(_kernels.load_error)
    n, pad = 9, 4
    sat = np.zeros((n + 2 * pad + 1,) * 2, np.int64)
    bound = np.zeros(pad + 1, np.int64)
    assert _kernels.radius_pass(sat, n, pad, bound).shape == (n, n)
    with pytest.raises(ValueError, match="shape"):
        _kernels.radius_pass(sat[:-1, :-1], n, pad)  # one short
    with pytest.raises(ValueError, match="int64"):
        _kernels.radius_pass(sat.astype(np.int32), n, pad)
    with pytest.raises(ValueError, match="pad"):
        _kernels.radius_pass(sat, n, pad - 1)
    with pytest.raises(ValueError, match="length 5"):
        _kernels.radius_pass(sat, n, pad, bound[:-1])
    with pytest.raises(ValueError, match="length 5"):
        _kernels.radius_pass(sat, n, pad, bound.astype(np.int32))
    v = np.zeros((n, n), np.int32)
    assert np.array_equal(_kernels.dilate(v), v)
    with pytest.raises(ValueError, match="int32"):
        _kernels.dilate(v.astype(np.int64))
    with pytest.raises(ValueError, match="int32"):
        _kernels.dilate(v[:, :-1])
    for bad in (-1, (n - 1) // 2 + 1):
        v[2, 3] = bad
        with pytest.raises(ValueError, match="radii"):
            _kernels.dilate(v)


# Runs in a child process against a sanitizer build of C_SOURCE (argv[1]):
# the flip kernel and both region kernels on edge states, each compared with
# the python/numpy reference.
SANITIZED_RUN = r"""
import math
import sys

import numpy as np

from segsim import GridConfig, _kernels, new_random, regions, state_from_types
from segsim.dynamics import RunLimits, run_to_termination
from segsim.rng import STREAM_DYNAMICS, generator

_kernels._library_path = lambda: sys.argv[1]
_kernels._resolve()
assert _kernels.load_error is None, _kernels.load_error
kernels = (_kernels.radius_pass, _kernels.dilate)


def region_maps(state, eps, use_c):
    _kernels.radius_pass, _kernels.dilate = kernels if use_c else (None, None)
    R = regions.max_region_radius(state.n)
    sat = regions._PaddedSAT(state.types > 0, R)
    r = regions._radius_pass(sat)
    q = regions._radius_pass(sat, regions._minority_bound(math.exp(-(state.config.N**eps)), R))
    return r, q, regions._dilate(r), regions._dilate(q)


for n, w, tau, seed, limits in ((7, 3, 0.45, 1, RunLimits(record_interval=1)),
                                (40, 2, 0.6, 4, RunLimits(record_interval=50)),
                                (48, 2, 0.45, 1, RunLimits(max_continuous_time=0.5))):
    cfg = GridConfig(n=n, w=w, tau_tilde=tau, seed=seed, allow_small=True)
    a, b = new_random(cfg), new_random(cfg)
    ra = run_to_termination(a, generator(seed, STREAM_DYNAMICS), limits, use_numba=False, audit=True)
    rb = run_to_termination(b, generator(seed, STREAM_DYNAMICS), limits, use_numba=True, audit=True)
    assert rb.engine == "c" and ra.canonical_json() == rb.canonical_json()
    assert np.array_equal(a.types, b.types) and np.array_equal(a.same_count, b.same_count)

for n, w in ((3, 1), (9, 1), (10, 1), (12, 2)):
    cfg = GridConfig(n=n, w=w, tau_tilde=0.45, seed=n, allow_small=True)
    done = new_random(cfg)
    run_to_termination(done, generator(n, STREAM_DYNAMICS))
    speck, corner, far = (np.ones((n, n), np.int8) for _ in range(3))
    speck[n // 2, n // 3] = corner[1, 1] = far[n - 2, n - 2] = -1
    island = -np.ones((n, n), np.int8)
    island[n // 2 - 1:n // 2 + 2, n // 2 - 1:n // 2 + 2] = 1
    for types in (np.ones((n, n), np.int8), speck, corner, far, island, new_random(cfg).types,
                  done.types):
        state = state_from_types(cfg, types)
        for eps in (0.1, 0.25, 0.4):
            got, ref = region_maps(state, eps, True), region_maps(state, eps, False)
            assert all(np.array_equal(x, y) for x, y in zip(got, ref)), (n, eps)
print("sanitized run ok")
"""


def test_sanitizer_build_runs_clean(tmp_path):
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("gcc not found on PATH")
    libasan = subprocess.run([gcc, "-print-file-name=libasan.so"],
                             capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(libasan) or not os.path.exists(libasan):
        pytest.skip("gcc has no libasan.so")
    lib = tmp_path / "kernels-sanitized.so"
    proc = subprocess.run(
        [gcc, "-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
         "-shared", "-fPIC", "-x", "c", "-", "-o", str(lib)],
        input=_kernels.C_SOURCE, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    src_dir = str(Path(segsim.__file__).resolve().parent.parent)
    env = {**os.environ, "LD_PRELOAD": libasan, "ASAN_OPTIONS": "detect_leaks=0",
           "PYTHONPATH": os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}
    probe = subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True, text=True)
    if probe.returncode != 0:
        pytest.skip(f"the AddressSanitizer runtime does not start here: {probe.stderr[:300]}")
    proc = subprocess.run([sys.executable, "-c", SANITIZED_RUN, str(lib)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[:3000]
    assert "sanitized run ok" in proc.stdout


def test_forced_c_engine_without_kernel_raises(monkeypatch):
    monkeypatch.setattr(_kernels, "run_chunk", None)
    monkeypatch.setattr(_kernels, "load_error", "compiled flip kernel unavailable: test")
    state = new_random(GridConfig(n=16, w=1, tau_tilde=0.45, seed=1))
    with pytest.raises(RuntimeError, match="unavailable: test"):
        run_to_termination(state, generator(1, STREAM_DYNAMICS), use_numba=True)
    report = run_to_termination(state, generator(1, STREAM_DYNAMICS))
    assert report.engine == "python"


# (n, w, tau, seed, limits, batch size, expected termination)
EDGE_CASES = {
    "time_limit_mid_chunk": (48, 2, 0.45, 1, RunLimits(max_continuous_time=0.5), 64, "TimeLimit"),
    "flip_limit_mid_chunk": (48, 2, 0.45, 1, RunLimits(max_flips=150), 64, "FlipLimit"),
    "trace_rows": (48, 2, 0.45, 1, RunLimits(record_interval=7), 64, "NoEligibleAgents"),
    "smallest_torus": (7, 3, 0.45, 1, RunLimits(record_interval=1), None, "NoEligibleAgents"),
    "tau_above_half": (40, 2, 0.6, 4, RunLimits(record_interval=50), 64, "NoEligibleAgents"),
    "w10": (84, 10, 0.45, 5, RunLimits(record_interval=500), None, "NoEligibleAgents"),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_c_kernel_matches_python(case, monkeypatch):
    if _kernels.run_chunk is None:
        pytest.skip(_kernels.load_error)
    n, w, tau, seed, limits, batch, expected = EDGE_CASES[case]
    if batch is not None:
        monkeypatch.setattr(dyn, "RUN_CHUNK", batch)
    cfg = GridConfig(n=n, w=w, tau_tilde=tau, seed=seed, allow_small=True)
    a = new_random(cfg)
    b = a.copy()
    ra = run_to_termination(a, generator(seed, STREAM_DYNAMICS), limits, use_numba=False, audit=True)
    rb = run_to_termination(b, generator(seed, STREAM_DYNAMICS), limits, use_numba=True, audit=True)
    assert (ra.engine, rb.engine) == ("python", "c")
    assert ra.termination_reason == rb.termination_reason == expected
    assert ra.flips_total == rb.flips_total > 0
    if batch is not None and expected != "NoEligibleAgents":
        assert ra.flips_total > batch and ra.flips_total % batch  # stops inside a later batch
    assert ra.continuous_time_final == rb.continuous_time_final
    assert a.time == b.time
    assert (ra.lyapunov_initial, ra.lyapunov_final) == (rb.lyapunov_initial, rb.lyapunov_final)
    assert ra.canonical_json() == rb.canonical_json()
    assert np.array_equal(a.types, b.types)
    assert np.array_equal(a.same_count, b.same_count)
    assert a.elig_count == b.elig_count
    assert np.array_equal(a.elig_cells[: a.elig_count], b.elig_cells[: b.elig_count])
    assert np.array_equal(a.elig_pos, b.elig_pos)
    assert (a.flips_done, a.version) == (b.flips_done, b.version)
    if limits.record_interval:
        assert ra.trace.shape == rb.trace.shape and len(ra.trace) > 1
        assert np.array_equal(ra.trace, rb.trace)
    assert np.array_equal(ra.audit.cells, rb.audit.cells)
    assert np.array_equal(ra.audit.pre_counts, rb.audit.pre_counts)
    assert ra.audit.cells.dtype == rb.audit.cells.dtype
    assert ra.audit.pre_counts.dtype == rb.audit.pre_counts.dtype
    assert b.audit_consistent()
    if case == "tau_above_half":
        assert cfg.eligible_max_count == cfg.N + 1 - cfg.K < cfg.K - 1
    if case == "smallest_torus":
        assert n == 2 * w + 1
