"""The compiled C kernels: warning-free source, build cache, argument
checks, a sanitizer run, and bit-equality of the flip kernel with the python
reference executor, chunk by chunk and on edge cases (the region kernels
are compared with their numpy reference in test_regions.py, the prefix
table and the same-type counts in test_grid.py, the passage-time kernel and
the breadth-first search with csgraph in test_percolation.py)."""

import dataclasses
import inspect
import json
import math
import os
import shutil
import subprocess
import sys
import time
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
    inode = built[0].stat().st_ino
    fn, error = _kernels._load()  # a hit loads the same file, no rebuild
    assert fn is not None and built[0].stat().st_ino == inode


def test_loads_keep_the_library_fresh_and_builds_prune_stale_ones(tmp_path, monkeypatch):
    # A load refreshes the mtime of the library it opens; a build removes
    # the kernels-*.so siblings older than STALE_DAYS and nothing else.
    if shutil.which("gcc") is None:
        pytest.skip("gcc not found on PATH")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = tmp_path / "segsim"
    assert _kernels._load()[0] is not None
    path = Path(_kernels._library_path())
    now, day = time.time(), 86400
    os.utime(path, (now - 90 * day,) * 2)
    inode = path.stat().st_ino
    assert _kernels._load()[0] is not None
    assert path.stat().st_ino == inode and path.stat().st_mtime > now - day

    ages = {"kernels-stale.so": 31, "kernels-recent.so": 29, "other-stale.so": 31,
            "kernels-stale.so.tmp": 31}
    for name, age in ages.items():
        (cache / name).write_bytes(b"")
        os.utime(cache / name, (now - age * day,) * 2)
    real_glob = _kernels.glob.glob
    # A sibling that another process removes between the listing and the stat.
    monkeypatch.setattr(_kernels.glob, "glob",
                        lambda pattern: real_glob(pattern) + [str(cache / "kernels-gone.so")])
    path.unlink()
    assert _kernels._load()[0] is not None  # a build
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        [path.name, "kernels-recent.so", "other-stale.so", "kernels-stale.so.tmp"])

    # Its own target is never removed, however old the clock makes it.
    monkeypatch.setattr(_kernels.time, "time", lambda: now + 365 * day)
    _kernels._build(str(path))
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        [path.name, "other-stale.so", "kernels-stale.so.tmp"])


def test_a_library_that_fails_to_open_is_rebuilt_once(tmp_path, monkeypatch):
    # The library vanishes between the existence check and the load: one
    # rebuild, then the kernels load.  A load that keeps failing is reported
    # after that one rebuild, not retried again.
    if shutil.which("gcc") is None:
        pytest.skip("gcc not found on PATH")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _kernels._load()[0] is not None
    path = _kernels._library_path()
    real_cdll, real_build = _kernels.ctypes.CDLL, _kernels._build
    for failures in (1, 2):
        opens, builds = [], []

        def cdll(name):
            opens.append(name)
            if len(opens) <= failures:
                os.remove(name)
                raise OSError(f"{name}: cannot open shared object file")
            return real_cdll(name)

        monkeypatch.setattr(_kernels, "_build", lambda p: (builds.append(p), real_build(p)))
        monkeypatch.setattr(_kernels.ctypes, "CDLL", cdll)
        lib, error = _kernels._load()
        assert builds == [path] and opens == [path, path]
        if failures == 1:
            assert lib is not None and error is None and os.path.exists(path)
        else:
            assert lib is None and "cannot open shared object file" in error


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
    batch = np.zeros(4)
    log = [np.zeros(4, dt) for dt in (np.int64, np.int32, np.float64, np.int64)]

    def call(cells=cells, w=w, log=log, m=0):
        return _kernels.run_chunk(types, sc, pos, cells, m, n, w, (2 * w + 1) ** 2, 22, 0.0, 0,
                                  10, math.inf, batch, batch, True, *log)

    with pytest.raises(ValueError, match=r"n\*n"):
        call()
    cells = np.zeros(n * n, np.int64)
    with pytest.raises(ValueError, match="2w\\+1"):
        call(cells, w=4)
    pos[0] = 0  # cell 0 eligible: a call that reached C would flip it
    for short in range(4):  # each log array one short of the batch
        with pytest.raises(ValueError, match="log buffers"):
            call(cells, log=[a[:-1] if i == short else a for i, a in enumerate(log)], m=1)
    assert (types == 1).all() and not sc.any()  # rejected before the C call
    assert call(cells)[-1] == _kernels.STATUS_NO_ELIGIBLE


def test_flip_wrapper_guards_the_int16_range_and_allocation():
    n, w = 7, 3
    args = [np.ones(n * n, np.int8), np.zeros(n * n, np.int32), np.full(n * n, -1, np.int32),
            np.zeros(n * n, np.int64), 0, n, w, (2 * w + 1) ** 2, 22, 0.0, 0, 10, math.inf,
            np.zeros(4), np.zeros(4), False, np.zeros(0, np.int64), np.zeros(0, np.int32),
            np.zeros(0), np.zeros(0, np.int64)]
    with pytest.raises(MemoryError, match="signed count or candidate buffer"):
        _kernels._wrap_run_chunk(lambda *a: -1)(*args)
    args[7] = _kernels.INT16_MAX + 1
    with pytest.raises(ValueError, match="int16"):
        _kernels._wrap_run_chunk(lambda *a: pytest.fail("reached C"))(*args)


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


def test_summary_kernel_wrappers_reject_bad_arguments():
    if _kernels.prefix_table is None:
        pytest.skip(_kernels.load_error)
    plus = np.eye(4, dtype=np.uint8)
    assert np.array_equal(_kernels.prefix_table(plus)[1:, 1:], plus.cumsum(0).cumsum(1))
    for bad in (plus.astype(bool), plus.astype(np.int64), plus[:, :-1], np.zeros(4, np.uint8)):
        with pytest.raises(ValueError, match="square uint8"):
            _kernels.prefix_table(bad)


def test_bfs_and_count_wrappers_reject_bad_arguments():
    if _kernels.grid_bfs is None:
        pytest.skip(_kernels.load_error)
    nbr = np.full((3, 4, 4), -1, np.int32)
    nbr[0, 0, 0], nbr[0, 1, 2] = 1, 5  # 0 -> 1 -> 5
    assert _kernels.grid_bfs(nbr, 0, [5, 11]) == [0, 1, 5]
    assert _kernels.grid_bfs(nbr, 0, 11) is None
    for bad in (nbr.astype(np.int64), nbr[:, :, :3], nbr.reshape(12, 4)):
        with pytest.raises(ValueError, match=r"int32 array of shape \(h, w, 4\)"):
            _kernels.grid_bfs(bad, 0, 5)
    for value in (-2, 12):
        bad = nbr.copy()
        bad[2, 3, 1] = value  # a slot the search never reaches is checked too
        with pytest.raises(ValueError, match=r"\[-1, h\*w\)"):
            _kernels.grid_bfs(bad, 0, 5)
    for source, targets in ((-1, 5), (12, 5), (0, -1), (0, [5, 12])):
        with pytest.raises(ValueError, match="lie in the lattice"):
            _kernels.grid_bfs(nbr, source, targets)
    # Broadcast views: the shape alone is rejected, before any copy is made.
    with pytest.raises(ValueError, match="2\\^31"):
        _kernels.grid_bfs(np.broadcast_to(np.int32(-1), (46341, 46341, 4)), 0, 1)

    types = np.where(np.eye(5, dtype=bool), 1, -1).astype(np.int8)
    # The diagonal sees 3 of its own type; the others 7 beside it, 8 two off.
    assert _kernels.box_counts(types, 1).tolist() == [
        [3 if i == j else 7 if (i - j) % 5 in (1, 4) else 8 for j in range(5)] for i in range(5)]
    for bad in (types.astype(np.int16), types[:, :-1], types.ravel()):
        with pytest.raises(ValueError, match="square int8"):
            _kernels.box_counts(bad, 1)
    for w in (-1, 3):
        with pytest.raises(ValueError, match="2w\\+1"):
            _kernels.box_counts(types, w)
    with pytest.raises(ValueError, match="2\\^31"):
        _kernels.box_counts(np.broadcast_to(np.int8(1), (46341, 46341)), 1)


def test_bfs_and_count_wrappers_raise_memory_error_when_c_cannot_allocate():
    with pytest.raises(MemoryError, match="breadth-first search"):
        _kernels._wrap_grid_bfs(lambda *args: -1)(np.full((3, 3, 4), -1, np.int32), 0, 8)
    with pytest.raises(MemoryError, match="same-type counts"):
        _kernels._wrap_box_counts(lambda *args: -1)(np.ones((3, 3), np.int8), 1)


def test_region_wrappers_raise_memory_error_when_c_cannot_allocate():
    n = 9
    with pytest.raises(MemoryError, match="radius pass"):
        _kernels._wrap_radius_pass(lambda *args: -1)(np.zeros((n + 1, n + 1), np.int64), n,
                                                     np.zeros(5, np.int64))
    with pytest.raises(MemoryError, match="dilation"):
        _kernels._wrap_dilate(lambda *args: -1)(np.zeros((n, n), np.int32))


def test_passage_time_wrapper_rejects_bad_arguments():
    if _kernels.passage_time is None:
        pytest.skip(_kernels.load_error)
    w = np.ones((3, 4))
    assert _kernels.passage_time(w, np.array([0]), np.array([11])) == 6.0
    with pytest.raises(ValueError, match="float64"):
        _kernels.passage_time(w.astype(np.float32), np.array([0]), np.array([11]))
    for bad in (12, -1):
        with pytest.raises(ValueError, match="lie in the lattice"):
            _kernels.passage_time(w, np.array([0]), np.array([bad]))
        with pytest.raises(ValueError, match="lie in the lattice"):
            _kernels.passage_time(w, np.array([bad]), np.array([11]))


def test_passage_time_wrapper_raises_memory_error_when_c_cannot_allocate():
    with pytest.raises(MemoryError, match="passage time"):
        _kernels._wrap_passage_time(lambda *args: -1)(np.ones((3, 3)), np.array([0]),
                                                      np.array([8]))


# Runs in a child process against a sanitizer build of C_SOURCE (argv[1]):
# the flip kernel on the shapes of EDGE_CASES (argv[2]), the region and
# summary kernels and the passage-time kernel on edge inputs, each compared
# with the python/numpy/csgraph reference.  The radius pass runs at the zero
# table and at the ratio test's tables, on tori down to n = 3 and on n =
# 2w+1; the prefix table on the same edge tori; the dilation on edge maps
# from n = 1 to 31 (all-zero, all-(n-1)/2, a peak on the wrap corner,
# isolated peaks, random values); the passage time on 1 x n
# and n x 1 strips, on lattices where every site but one is a source, on the
# bucket queue's edge weights (test_percolation.adversarial_weights, imported
# from the tests directory) and on the benchmark's 121 x 401 strip; the
# same-type counts at every w on the edge tori; the breadth-first search on
# 1 x 1, 1 x n and n x 1 lattices with cut slots.
SANITIZED_RUN = r"""
import json
import math
import sys

import numpy as np

from segsim import (GridConfig, _kernels, dynamics, grid, new_random, percolation, regions,
                    state_from_types)
from segsim.dynamics import RunLimits, run_to_termination
from segsim.rng import STREAM_DYNAMICS, generator
from test_percolation import adversarial_weights, corridor_ends

_kernels._library_path = lambda: sys.argv[1]
_kernels._resolve()
assert _kernels.load_error is None, _kernels.load_error
kernels = (_kernels.radius_pass, _kernels.dilate)
prefix_table, passage_time = _kernels.prefix_table, _kernels.passage_time
grid_bfs, box_counts = _kernels.grid_bfs, _kernels.box_counts


# The summary's prefix table and the same-type counts at every w that fits,
# against numpy.
def assert_summary_kernels_agree(types):
    n = types.shape[0]
    plus = types > 0
    want = np.zeros((n + 1, n + 1), np.int64)
    want[1:, 1:] = plus.astype(np.int64).cumsum(0).cumsum(1)
    assert np.array_equal(prefix_table(plus.view(np.uint8)), want), n
    for w in range(1, (n - 1) // 2 + 1):
        assert np.array_equal(box_counts(types, w), grid.box_same_counts(types, w)), (n, w)


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


# The flip kernel's edge cases (EDGE_CASES in the test module), as JSON in argv[2].
default_chunk = dynamics.RUN_CHUNK
for n, w, tau, seed, limits, batch in json.loads(sys.argv[2]):
    dynamics.RUN_CHUNK = batch or default_chunk
    limits = RunLimits(**limits)
    cfg = GridConfig(n=n, w=w, tau_tilde=tau, seed=seed, allow_small=True)
    a, b = new_random(cfg), new_random(cfg)
    ra = run_to_termination(a, generator(seed, STREAM_DYNAMICS), limits, use_numba=False, audit=True)
    rb = run_to_termination(b, generator(seed, STREAM_DYNAMICS), limits, use_numba=True, audit=True)
    assert rb.engine == "c" and ra.canonical_json() == rb.canonical_json()
    assert np.array_equal(a.types, b.types) and np.array_equal(a.same_count, b.same_count)
    assert_region_maps_agree(b, 0.1)  # n = 2w+1 at (7, 3), (13, 6), (21, 10) and (181, 90)
dynamics.RUN_CHUNK = default_chunk

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
        assert_summary_kernels_agree(types)
        state = state_from_types(cfg, types)
        for eps in (0.1, 0.25, 0.4):
            assert_region_maps_agree(state, eps)

# The dilation's pruning and run fills on edge maps: all-zero, all-(n-1)/2,
# one peak on the wrap corner, isolated peaks and random values.
rng = np.random.default_rng(2)
for n in (1, 2, 3, 5, 8, 31):
    R = (n - 1) // 2
    corner, peaks = np.zeros((n, n), np.int32), np.zeros((n, n), np.int32)
    corner[n - 1, n - 1] = R
    peaks[rng.integers(0, n, n), rng.integers(0, n, n)] = rng.integers(0, R + 1, n)
    for v in (np.zeros((n, n), np.int32), np.full((n, n), R, np.int32), corner, peaks,
              rng.integers(0, R + 1, (n, n)).astype(np.int32)):
        _kernels.dilate = None
        assert np.array_equal(kernels[1](v), regions._dilate(v)), n

# The compiled and the csgraph passage time of call().
def passage_times(call):
    times = []
    for kernel in (passage_time, None):
        _kernels.passage_time = kernel
        times.append(call())
    return times


rng = np.random.default_rng(3)
for dims in ((1, 2), (2, 1), (1, 17), (17, 1), (5, 7), (33, 20)):
    size = dims[0] * dims[1]
    for trial in range(6):
        weights = np.zeros(dims) if trial == 0 else rng.exponential(1.0, dims)
        weights[rng.random(dims) < 0.2] = 0.0
        weights[rng.random(dims) < 0.2] = np.inf
        wl = percolation.WeightLattice(weights, "exponential", 1.0)
        cells = [divmod(int(v), dims[1]) for v in rng.permutation(size)]
        ns = size - 1 if trial == 1 else int(rng.integers(1, size // 2 + 1))
        nt = int(rng.integers(1, size - ns + 1))
        times = passage_times(
            lambda: percolation.fpp_min_passage_time(wl, cells[:ns], cells[ns:ns + nt]))
        assert times[0] == times[1], (dims, trial, times)

# The bucket queue's edge weights (test_percolation.adversarial_weights) and
# the benchmark's 121 x 401 strip for keys 0..9.
edge_rng = np.random.default_rng(4)
for dims in ((1, 17), (17, 1), (9, 31)):
    for name, weights in adversarial_weights(dims, edge_rng).items():
        wl = percolation.WeightLattice(weights, name, 1.0)
        ends = [corridor_ends(dims)]
        for _ in range(3):
            cells = [divmod(int(v), dims[1]) for v in edge_rng.permutation(dims[0] * dims[1])]
            ends.append((cells[:2], cells[2:4]))
        for sources, targets in ends:
            times = passage_times(lambda: percolation.fpp_min_passage_time(wl, sources, targets))
            assert times[0] == times[1] and np.signbit(times[0]) == np.signbit(times[1]), (
                dims, name, times)
for key in range(10):
    times = passage_times(lambda: percolation.fpp_time_to_distance(400, 60, 1.0, 3, key=(key,)))
    assert times[0] == times[1], (key, times)

for dims in ((1, 1), (1, 2), (1, 17), (17, 1), (9, 12)):
    size = dims[0] * dims[1]
    for trial in range(8):
        nbr = percolation._n4_neighbors(rng.random(dims) < 0.8)
        nbr[rng.random(nbr.shape) < 0.1] = -1
        source = int(rng.integers(size))
        targets = rng.integers(0, size, int(rng.integers(1, 4))).tolist()
        paths = []
        for kernel in (grid_bfs, None):
            _kernels.grid_bfs = kernel
            paths.append(percolation._bfs_path(nbr, source, targets))
        assert paths[0] == paths[1], (dims, trial, paths)
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
        [gcc, "-O1", "-g", "-fsanitize=address,undefined,float-cast-overflow",
         "-fno-sanitize-recover=all",
         "-shared", "-fPIC", "-x", "c", "-", "-o", str(lib)],
        input=_kernels.C_SOURCE, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    src_dir = str(Path(segsim.__file__).resolve().parent.parent)
    tests_dir = str(Path(__file__).resolve().parent)
    env = {**os.environ, "LD_PRELOAD": libasan, "ASAN_OPTIONS": "detect_leaks=0",
           "PYTHONPATH": os.pathsep.join(filter(None, [src_dir, tests_dir,
                                                       os.environ.get("PYTHONPATH")]))}
    probe = subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True, text=True)
    if probe.returncode != 0:
        pytest.skip(f"the AddressSanitizer runtime does not start here: {probe.stderr[:300]}")
    flip_cases = [[n, w, tau, seed, dataclasses.asdict(limits), batch]
                  for n, w, tau, seed, limits, batch, _ in EDGE_CASES.values()]
    proc = subprocess.run([sys.executable, "-c", SANITIZED_RUN, str(lib), json.dumps(flip_cases)],
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
    fill the same per-flip log and return the same tuple from one state and
    batch."""
    if _kernels.run_chunk is None:
        pytest.skip(_kernels.load_error)
    max_time = math.inf if max_time is None else max_time  # None: no time limit
    assert (list(inspect.signature(_kernels.run_chunk).parameters)
            == list(inspect.signature(dyn._run_chunk_py).parameters))
    cfg = GridConfig(n=48, w=2, tau_tilde=0.45, seed=1)
    state = new_random(cfg)
    rng = generator(1, STREAM_DYNAMICS)
    B, flips0 = 64, 5
    u_batch, e_batch = rng.random(B), rng.standard_exponential(B)
    results = []
    for execute in (_kernels.run_chunk, dyn._run_chunk_py):
        s = state.copy()
        log = [np.zeros(B, dt) for dt in (np.int64, np.int32, np.float64, np.int64)]
        out = execute(s.types, s.same_count, s.elig_pos, s.elig_cells, s.elig_count, cfg.n,
                      cfg.w, cfg.N, cfg.eligible_max_count, 0.25, flips0, max_flips, max_time,
                      u_batch, e_batch, True, *log)
        results.append((out, [a[:out[2] - flips0] for a in log], s))
    (out_c, log_c, c), (out_py, log_py, py) = results
    assert len(out_c) == 4 and out_c == out_py
    assert out_c[-1] == expected
    assert out_c[2] > flips0
    for x, y in zip(log_c, log_py):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert log_c[3][-1] == out_c[0] and log_c[2][-1] <= out_c[1]  # m and t after the last flip
    for name in ("types", "same_count", "elig_pos", "elig_cells"):
        assert np.array_equal(getattr(c, name), getattr(py, name)), name


# (n, w, tau, seed, limits, batch size, expected termination)
EDGE_CASES = {
    "time_limit_mid_chunk": (48, 2, 0.45, 1, RunLimits(max_continuous_time=0.5, record_interval=11),
                             64, "TimeLimit"),
    "flip_limit_mid_chunk": (48, 2, 0.45, 1, RunLimits(max_flips=150, record_interval=13), 64,
                             "FlipLimit"),
    "trace_rows": (48, 2, 0.45, 1, RunLimits(record_interval=7), 64, "NoEligibleAgents"),
    "smallest_torus": (7, 3, 0.45, 1, RunLimits(record_interval=1), None, "NoEligibleAgents"),
    "tau_above_half": (40, 2, 0.6, 4, RunLimits(record_interval=50), 64, "NoEligibleAgents"),
    "w10": (84, 10, 0.45, 5, RunLimits(record_interval=500), None, "NoEligibleAgents"),
    # n = 2w+1: every window is the whole torus, and its rows split at the
    # wrap unless the flipped cell is in column w; seeds 1-3 make no flip.
    "full_torus_w10": (21, 10, 0.45, 4, RunLimits(record_interval=10), None, "NoEligibleAgents"),
    "full_torus_w6": (13, 6, 0.45, 4, RunLimits(record_interval=5), None, "NoEligibleAgents"),
    # Rows shorter than one 8-lane vector of the count update, and rows off
    # its multiples, so the last run's masked lanes read the padding.
    "n7_w1": (7, 1, 0.45, 1, RunLimits(record_interval=1), None, "NoEligibleAgents"),
    "n9_w2": (9, 2, 0.45, 1, RunLimits(record_interval=1), None, "NoEligibleAgents"),
    # Flips at column c0 = w - 8: the window's first column run, [c0 - w + n,
    # n), is exactly one 8-lane vector with an empty tail, and the flipped
    # cell lies in the second run.
    "first_run_one_vector": (36, 8, 0.45, 1, RunLimits(), None, "NoEligibleAgents"),
    # The last cell flips: its window's runs end at the last row and column.
    "last_cell_flips": (20, 3, 0.45, 3, RunLimits(), None, "NoEligibleAgents"),
    # emax = 2, and emax = (N - 1) / 2, where the two crossing values are
    # d * 24 and -d * 25.
    "emax_2": (24, 1, 0.3, 1, RunLimits(), None, "NoEligibleAgents"),
    "emax_near_half": (40, 3, 0.5, 1, RunLimits(), None, "NoEligibleAgents"),
    # N = 181^2 = 32761, the largest (2w+1)^2 the int16 counts hold; at tau = 1/2
    # every agent of the torus's minority type is eligible.
    "int16_limit": (181, 90, 0.5, 1, RunLimits(max_flips=200), None, "FlipLimit"),
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
    if case in ("smallest_torus", "full_torus_w10", "full_torus_w6", "int16_limit"):
        assert n == 2 * w + 1
    if case in ("n7_w1", "n9_w2"):
        assert n % 8
    if case == "first_run_one_vector":
        assert w >= 8 and (ra.audit.cells % n == w - 8).any()
    if case == "last_cell_flips":
        assert n * n - 1 in ra.audit.cells
    if case == "emax_2":
        assert cfg.eligible_max_count == 2
    if case == "emax_near_half":
        assert cfg.eligible_max_count == (cfg.N - 1) // 2
    if case == "int16_limit":
        assert cfg.N <= _kernels.INT16_MAX < (2 * w + 3) ** 2


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


@st.composite
def _roomy_tori(draw):
    """(n, w) with 5 <= w <= 12 and 4w+2 <= n <= 6w."""
    w = draw(st.integers(5, 12))
    return draw(st.integers(4 * w + 2, 6 * w)), w


@given(torus=_roomy_tori(), tau=st.sampled_from([0.4, 0.45, 0.6]),
       p=st.sampled_from([0.3, 0.4, 0.5, 0.6, 0.7]), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=100, deadline=None)
def test_engines_agree_on_roomy_tori(torus, tau, p, seed):
    """Tori of 4w+2 to 6w cells a side, where most windows do not wrap, so
    the flip's one-run rows (full vectors unmasked, one masked tail) carry
    most of the flips; on the tori above nearly every window wraps."""
    b = _assert_engines_agree(*torus, tau, seed, p)
    assert b.audit_consistent()
