"""The compiled C kernels: warning-free source, build cache, argument
checks, a sanitizer run, and bit-equality of the flip kernel with the python
reference executor, chunk by chunk and on edge cases (the region kernels
are compared with their numpy reference in test_regions.py)."""

import inspect
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        [gcc, *_kernels.CFLAGS, "-Wall", "-Wextra", "-Werror",
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
    n, w = 7, 3
    types = np.ones(n * n, np.int8)
    sc = np.zeros(n * n, np.int32)
    pos = np.full(n * n, -1, np.int32)
    cells = np.zeros(n * n - 1, np.int64)  # one short
    cand = np.zeros((2 * w + 1) ** 2, np.int64)
    batch = np.zeros(4)
    rec = np.zeros(1, np.int64)

    def call(cells=cells, cand=cand, w=w, audit=False, m=0):
        return _kernels.run_chunk(types, sc, pos, cells, cand, m, n, w, (2 * w + 1) ** 2, 22, 0,
                                  0.0, 0, 10, math.inf, batch, batch, 0, rec, np.zeros(1), rec, rec,
                                  audit, rec, np.zeros(1, np.int32))

    with pytest.raises(ValueError, match=r"n\*n"):
        call()
    cells = np.zeros(n * n, np.int64)
    with pytest.raises(ValueError, match="2w\\+1"):
        call(cells, np.zeros(81, np.int64), w=4)
    with pytest.raises(ValueError, match="audit"):
        call(cells, audit=True)
    pos[0] = 0  # cell 0 eligible: a call that reached C would flip it
    with pytest.raises(ValueError, match="candidate buffer"):
        call(cells, cand[:-1], m=1)  # one short of (2w+1)^2
    assert (types == 1).all() and not sc.any()  # rejected before the C call
    assert call(cells)[-1] == _kernels.STATUS_NO_ELIGIBLE


def test_region_wrappers_reject_bad_tables():
    if _kernels.radius_pass is None:
        pytest.skip(_kernels.load_error)
    n = 9
    sat = np.zeros((n + 1, n + 1), np.int64)
    bound = np.zeros(5, np.int64)
    r, q = _kernels.radius_pass(sat, n, bound)
    assert r.shape == q.shape == (n, n) and r.dtype == q.dtype == np.int32
    with pytest.raises(ValueError, match=r"shape \(10, 10\)"):
        _kernels.radius_pass(sat[:-1, :-1], n, bound)  # one short
    with pytest.raises(ValueError, match="int64"):
        _kernels.radius_pass(sat.astype(np.int32), n, bound)
    with pytest.raises(ValueError, match=r"shape \(10, 10\)"):
        _kernels.radius_pass(np.zeros((n + 9,) * 2, np.int64), n, bound)  # a wrap-padded table
    with pytest.raises(ValueError, match="length 5"):
        _kernels.radius_pass(sat, n, bound[:-1])
    with pytest.raises(ValueError, match="length 5"):
        _kernels.radius_pass(sat, n, bound.astype(np.int32))
    with pytest.raises(ValueError, match="non-decreasing"):
        _kernels.radius_pass(sat, n, np.array([0, 1, 2, 1, 3], np.int64))
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


def test_region_wrappers_raise_memory_error_when_c_cannot_allocate():
    n = 9
    with pytest.raises(MemoryError, match="radius pass"):
        _kernels._wrap_radius_pass(lambda *args: -1)(np.zeros((n + 1, n + 1), np.int64), n,
                                                     np.zeros(5, np.int64))
    with pytest.raises(MemoryError, match="dilation"):
        _kernels._wrap_dilate(lambda *args: -1)(np.zeros((n, n), np.int32))


# Runs in a child process against a sanitizer build of C_SOURCE (argv[1]):
# the flip kernel and both region kernels on edge states, each compared with
# the python/numpy reference.  The radius pass runs at the zero table and at
# the ratio test's tables, on tori down to n = 3 and on n = 2w+1.
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


# (r, q, M, M') from one pass at the zero table, then from one at eps's.
def region_maps(state, eps, use_c):
    _kernels.radius_pass, _kernels.dilate = kernels if use_c else (None, None)
    R = regions.max_region_radius(state.n)
    prefix = state.plus_prefix()
    maps = []
    for threshold in (0.0, math.exp(-(state.config.N**eps))):
        r, q = regions._radius_pass(prefix, regions._minority_bound(threshold, R))
        maps += [r, q, regions._dilate(r), regions._dilate(q)]
    return maps


def assert_region_maps_agree(state, eps):
    got, ref = region_maps(state, eps, True), region_maps(state, eps, False)
    assert all(np.array_equal(x, y) for x, y in zip(got, ref)), (state.n, eps)


for n, w, tau, seed, limits in ((7, 3, 0.45, 1, RunLimits(record_interval=1)),
                                (40, 2, 0.6, 4, RunLimits(record_interval=50)),
                                (48, 2, 0.45, 1, RunLimits(max_continuous_time=0.5)),
                                (21, 10, 0.45, 4, RunLimits(record_interval=10))):
    cfg = GridConfig(n=n, w=w, tau_tilde=tau, seed=seed, allow_small=True)
    a, b = new_random(cfg), new_random(cfg)
    ra = run_to_termination(a, generator(seed, STREAM_DYNAMICS), limits, use_numba=False, audit=True)
    rb = run_to_termination(b, generator(seed, STREAM_DYNAMICS), limits, use_numba=True, audit=True)
    assert rb.engine == "c" and ra.canonical_json() == rb.canonical_json()
    assert np.array_equal(a.types, b.types) and np.array_equal(a.same_count, b.same_count)
    assert_region_maps_agree(b, 0.1)  # n = 2w+1 at (7, 3) and (21, 10)

for n, w in ((3, 1), (9, 1), (10, 1), (11, 2), (12, 2)):
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
            assert_region_maps_agree(state, eps)
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


@pytest.mark.parametrize("max_flips,max_time,expected", [
    (45, None, _kernels.STATUS_FLIP_LIMIT),
    (10**6, 0.3, _kernels.STATUS_TIME_LIMIT),
    (10**6, None, _kernels.STATUS_BATCH_DONE),
])
def test_executors_share_one_contract(max_flips, max_time, expected):
    """_kernels.run_chunk and dynamics._run_chunk_py take the same arguments,
    fill the same buffers and return the same tuple from one state and batch."""
    if _kernels.run_chunk is None:
        pytest.skip(_kernels.load_error)
    max_time = math.inf if max_time is None else max_time  # None: no time limit
    assert (list(inspect.signature(_kernels.run_chunk).parameters)
            == list(inspect.signature(dyn._run_chunk_py).parameters))
    cfg = GridConfig(n=48, w=2, tau_tilde=0.45, seed=1)
    state = new_random(cfg)
    rng = generator(1, STREAM_DYNAMICS)
    B, rec_every = 64, 7
    u_batch, e_batch = rng.random(B), rng.standard_exponential(B)
    results = []
    for execute in (_kernels.run_chunk, dyn._run_chunk_py):
        s = state.copy()
        bufs = [np.zeros(B // rec_every + 2, dt) for dt in (np.int64, np.float64, np.int64, np.int64)]
        audit = [np.zeros(B, np.int64), np.zeros(B, np.int32)]
        out = execute(s.types, s.same_count, s.elig_pos, s.elig_cells,
                      np.zeros((2 * cfg.w + 1) ** 2, np.int64), s.elig_count, cfg.n, cfg.w, cfg.N,
                      cfg.eligible_max_count, dyn.lyapunov(s), 0.25, 5, max_flips, max_time,
                      u_batch, e_batch, rec_every, *bufs, True, *audit)
        rec_count, audit_count = out[4], out[5]
        results.append((out, [b[:rec_count] for b in bufs], [a[:audit_count] for a in audit], s))
    (out_c, rec_c, audit_c, c), (out_py, rec_py, audit_py, py) = results
    assert len(out_c) == 7 and out_c == out_py
    assert out_c[-1] == expected
    assert out_c[4] > 0 and out_c[5] > 0
    for x, y in zip(rec_c + audit_c, rec_py + audit_py):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    for name in ("types", "same_count", "elig_pos", "elig_cells"):
        assert np.array_equal(getattr(c, name), getattr(py, name)), name


# (n, w, tau, seed, limits, batch size, expected termination)
EDGE_CASES = {
    "time_limit_mid_chunk": (48, 2, 0.45, 1, RunLimits(max_continuous_time=0.5), 64, "TimeLimit"),
    "flip_limit_mid_chunk": (48, 2, 0.45, 1, RunLimits(max_flips=150), 64, "FlipLimit"),
    "trace_rows": (48, 2, 0.45, 1, RunLimits(record_interval=7), 64, "NoEligibleAgents"),
    "smallest_torus": (7, 3, 0.45, 1, RunLimits(record_interval=1), None, "NoEligibleAgents"),
    "tau_above_half": (40, 2, 0.6, 4, RunLimits(record_interval=50), 64, "NoEligibleAgents"),
    "w10": (84, 10, 0.45, 5, RunLimits(record_interval=500), None, "NoEligibleAgents"),
    # n = 2w+1: every window is the whole torus, and its rows split at the
    # wrap unless the flipped cell is in column w; seeds 1-3 make no flip.
    "full_torus_w10": (21, 10, 0.45, 4, RunLimits(record_interval=10), None, "NoEligibleAgents"),
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
    assert a.flips_done == b.flips_done
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
    if case in ("smallest_torus", "full_torus_w10"):
        assert n == 2 * w + 1


@st.composite
def _tori(draw, w_min, w_max, extra):
    """(n, w) with w_min <= w <= w_max and 2w+1 <= n <= 2w+1 + extra."""
    w = draw(st.integers(w_min, w_max))
    n = draw(st.integers(2 * w + 1, 2 * w + 1 + extra))
    return n, w


def _assert_engines_agree(n, w, tau, seed, p=0.5):
    if _kernels.run_chunk is None:
        pytest.skip(_kernels.load_error)
    cfg = GridConfig(n=n, w=w, tau_tilde=tau, p=p, seed=seed, allow_small=True)
    a = new_random(cfg)
    b = a.copy()
    ra = run_to_termination(a, generator(seed, STREAM_DYNAMICS), use_numba=False)
    rb = run_to_termination(b, generator(seed, STREAM_DYNAMICS), use_numba=True)
    assert (ra.engine, rb.engine) == ("python", "c")
    assert ra.canonical_json() == rb.canonical_json()
    assert np.array_equal(a.types, b.types)
    assert np.array_equal(a.same_count, b.same_count)
    assert np.array_equal(a.elig_pos, b.elig_pos)
    assert a.elig_count == b.elig_count
    assert np.array_equal(a.elig_cells[: a.elig_count], b.elig_cells[: b.elig_count])
    return b


@given(torus=_tori(1, 4, 7), tau=st.sampled_from([0.3, 0.4, 0.45, 0.5, 0.6]),
       seed=st.integers(0, 2**64 - 1))
@settings(max_examples=150, deadline=None)
def test_engines_agree_on_small_tori(torus, tau, seed):
    """The one-walk C flip and the three-pass python flip leave the same
    report and state on tori down to n = 2w+1, where rows split at the wrap."""
    _assert_engines_agree(*torus, tau, seed)


@given(torus=_tori(5, 12, 5), tau=st.sampled_from([0.4, 0.45, 0.6]),
       p=st.sampled_from([0.3, 0.4, 0.5, 0.6, 0.7]), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=100, deadline=None)
def test_engines_agree_on_wide_windows(torus, tau, p, seed):
    """Window rows of 11 to 25 cells, longer than one vector of the count
    update plus its tail, so column runs that skip the membership walk and
    runs that take it both occur; tau = 0.6 makes emax = N + 1 - K.  On
    such small tori every window covers most of the grid, so a fill away
    from p = 1/2 is what makes most runs flip."""
    b = _assert_engines_agree(*torus, tau, seed, p)
    assert b.audit_consistent()
