"""Compiled C kernels for the flip loop and the region maps, loaded with ctypes.

The flip kernel takes the same arguments and gives the same results as the
pure-python chunk executor dynamics._run_chunk_py: from one pre-drawn
(uniform, exponential) batch both leave the same state.  Per flip, every
same_count in the (2w+1)^2 window changes, and the eligible list then sees
swap-removals of the members whose count now exceeds the eligibility
bound, in row-major window order, followed by appends of the non-members
whose count is now within it, in row-major window order.  That order is
the contract: the python reference (grid._flip_cell) keeps it in three
passes over the window, and the kernel keeps it in one walk that removes
as it goes and buffers the appends, and runs that membership walk only
over the column runs where a count crossed the bound or the flipped cell
lies (the proof is in the C comment).

The region kernels are the two steps of regions.py.  One radius pass gives
every center two radii: r(c), the largest single-type radius, and q(c),
the largest radius whose minority count is within an integer table of the
largest passing count per radius; at the ratio test's table q(c) is the
largest almost-monochromatic radius, and at the all-zero table q = r.
Along each row the pass climbs single-type windows center by center and
then reads the remaining windows grouped by level, so the reads of one
level share two table rows.  The own-radius dilation turns r into M and q
into M'.  The radius pass reads the state's one
(n+1) x (n+1) prefix table of the +1 grid (grid.TorusPrefix) and reaches
wrapping windows through the table's periodic extension.  They do integer
arithmetic only.  Every kernel's results are asserted equal to the
numpy/python reference by the test suite.

The C source below is compiled on first use with ``gcc -O3 -shared -fPIC``
into ``$XDG_CACHE_HOME/segsim`` (default ``~/.cache/segsim``), or into a
private ``segsim-<uid>`` directory under the system temp directory when
that cannot be written.  The library's file name is a sha256 of the source,
the flags and the machine type, and it is written through a temp file and
``os.replace``, so concurrent processes never load a half-written file and
later runs only hash, stat and load.  Without gcc, or when the build or
load fails, ``run_chunk``, ``radius_pass`` and ``dilate`` are None,
``load_error`` says why, and the python/numpy reference code runs instead.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile

import numpy as np

# Chunk status codes shared with dynamics.py.
STATUS_BATCH_DONE = 0
STATUS_NO_ELIGIBLE = 1
STATUS_FLIP_LIMIT = 2
STATUS_TIME_LIMIT = 3

C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

enum { BATCH_DONE = 0, NO_ELIGIBLE = 1, FLIP_LIMIT = 2, TIME_LIMIT = 3 };

/* io[0..2] in: m, phi, flips.  io[0..4] out: m, phi, flips, rec_count,
   audit_count.  *t is read and written; max_time is +inf when time is not
   limited.  Returns the status.  cand holds at least (2w+1)^2 entries.
   Same arguments and results as the python reference executor
   (dynamics._run_chunk_py).

   One row-major walk over the window per flip does what the python
   reference flip (grid._flip_cell) does in three: it updates each cell's
   same_count, swap-removes the cell from the eligible list at once when it
   is a member whose count now exceeds emax, and appends it to cand when it
   is not a member and its count is now <= emax; after the walk cand is
   appended to the list in its order.  The result is bit-identical to
   three passes (all updates, then removals in row-major order, then
   insertions in row-major order):
   - 2w+1 <= n, so each cell appears once in the window, and its count is
     final after its one update; the count it is tested with is the count
     the second and third passes would read.
   - A removal reads only the removed cell's own count and the list
     positions, and it moves only the last member, which stays a member.
   - No cell joins the list during the walk (insertions wait for cand), and
     none leaves it except at its own visit.  So a cell's membership at its
     visit is its membership before the flip, the removals are the same
     cells in the same row-major order, and cand is the row-major set the
     third pass inserts: a removed cell's count exceeds emax, so the third
     pass never re-inserts it, and the insertions start at the same m.
   The flipped cell gets N - k before the walk; being of the new type, the
   walk's +1 leaves it N - k + 1, its count after the flip.

   Each column run is walked in two steps: a branch-free loop updates every
   count of the run and notes whether any count crossed emax, and the
   membership walk above runs over the run only when one did, or when the
   run holds the flipped cell.  Skipping the other runs changes nothing:
   - every count in the window moves by exactly +-1 except the flipped
     cell's, so the update loop reads each other cell's count before the
     flip and after it;
   - a cell's membership at its visit is its membership before the flip
     (above), which is count <= emax before the flip;
   - so in a run where no count crosses emax, every member keeps a count
     <= emax and every non-member a count > emax, and the walk would
     neither remove nor append;
   - the flipped cell, a member, leaves the list, but its count is N - k
     before the update, not k, so the crossing test cannot see it: its run
     is always walked.
   The walked runs are the same runs in the same row-major order, so the
   removals and cand keep their order. */
int64_t segsim_run_chunk(
    int8_t *restrict types, int32_t *restrict sc, int32_t *elig_pos, int64_t *elig_cells,
    int64_t *cand,
    int64_t n, int64_t w, int64_t N, int64_t emax,
    int64_t max_flips, double max_time,
    const double *u_batch, const double *e_batch, int64_t B,
    int64_t rec_every, int64_t *rec_flip, double *rec_time,
    int64_t *rec_phi, int64_t *rec_m,
    int64_t audit_on, int64_t *audit_cells, int32_t *audit_pre,
    int64_t *io, double *t_io)
{
    int64_t m = io[0], phi = io[1], flips = io[2];
    int64_t consumed = 0, rec_count = 0, audit_count = 0;
    int64_t status;
    double t = *t_io;
    const int32_t em = (int32_t)emax;

    for (;;) {
        if (m <= 0) { status = NO_ELIGIBLE; break; }
        if (flips >= max_flips) { status = FLIP_LIMIT; break; }
        if (consumed >= B) { status = BATCH_DONE; break; }
        double u = u_batch[consumed];
        double e = e_batch[consumed];
        consumed++;
        double dt = e / (double)m;
        if (t + dt > max_time) {
            t = max_time;
            status = TIME_LIMIT;
            break;
        }
        t += dt;
        int64_t cell = elig_cells[(int64_t)(u * (double)m)];
        int64_t r0 = cell / n, c0 = cell % n;
        int32_t k = sc[cell];
        int8_t new_type = (int8_t)-types[cell];
        types[cell] = new_type;
        sc[cell] = (int32_t)(N - k);
        phi += 2 * (N - 2 * (int64_t)k + 1);

        /* The window's columns, c0 - w .. c0 + w mod n, as at most two
           contiguous runs, [lo, hi) and then [0, wrap), split at the wrap. */
        int64_t lo = c0 - w, hi = c0 + w + 1, wrap = 0;
        if (lo < 0) {
            wrap = hi;
            lo += n;
            hi = n;
        } else if (hi > n) {
            wrap = hi - n;
            hi = n;
        }
        int64_t n_cand = 0;
        for (int64_t dr = -w; dr <= w; dr++) {
            int64_t r = r0 + dr;
            r += r < 0 ? n : r >= n ? -n : 0;
            const int64_t base = r * n;
            for (int run = 0; run < 2; run++) {
                const int64_t v0 = base + (run ? 0 : lo), v1 = base + (run ? wrap : hi);
                int crossed = 0;
                for (int64_t v = v0; v < v1; v++) {
                    const int32_t old = sc[v], c = old + (types[v] == new_type ? 1 : -1);
                    sc[v] = c;
                    crossed |= (old <= em) != (c <= em);
                }
                if (!crossed && !(v0 <= cell && cell < v1))
                    continue;
                for (int64_t v = v0; v < v1; v++) {
                    const int32_t c = sc[v];
                    int32_t pos = elig_pos[v];
                    if (pos >= 0) {
                        if (c > em) {
                            int64_t last = elig_cells[m - 1];
                            elig_cells[pos] = last;
                            elig_pos[last] = pos;
                            elig_pos[v] = -1;
                            m--;
                        }
                    } else if (c <= em) {
                        cand[n_cand++] = v;
                    }
                }
            }
        }
        for (int64_t i = 0; i < n_cand; i++) {
            int64_t v = cand[i];
            elig_pos[v] = (int32_t)m;
            elig_cells[m] = v;
            m++;
        }

        if (audit_on) {
            audit_cells[audit_count] = cell;
            audit_pre[audit_count] = k;
            audit_count++;
        }
        flips++;
        if (rec_every > 0 && flips % rec_every == 0) {
            rec_flip[rec_count] = flips;
            rec_time[rec_count] = t;
            rec_phi[rec_count] = phi;
            rec_m[rec_count] = m;
            rec_count++;
        }
    }
    io[0] = m; io[1] = phi; io[2] = flips;
    io[3] = rec_count; io[4] = audit_count;
    *t_io = t;
    return status;
}

/* The rows x0 and x1 of P, the prefix sum of the n-periodic grid whose
   (n+1) x (n+1) summed-area table is t, as one strip: D(y) = P(x1, y) -
   P(x0, y) for -n < x0, x1, y < 2n, so that a window of rows [x0, x1) and
   columns [y0, y1) holds D(y1) - D(y0).  With x = a n + i, y = b n + j,
   0 <= i, j <= n and a, b in {-1, 0, 1},
       P(x, y) = a b T + a Col(j) + b Row(i) + t(i, j),
   where T = t(n, n), Row(i) = t(i, n) and Col(j) = t(n, j).  Proof: P = t
   when a = b = 0, and a step of n in x adds b T + Col(j), one period of rows
   over columns [0, y), whatever x is; likewise in y.  So the second
   differences of P, the cell values, repeat with period n on both axes, and
   the four corners of any window read its torus sum.  A window of radius
   <= (n-1)/2 at a torus cell has its corners in (-n, 2n).  Along one row,
   P(x, y) = t(i, j) + a Col(j) + b P(x, n): the strip keeps the two table
   rows, Col, and the difference of the row totals P(x, n) = Row(i) + a T,
   so a read costs two entries of each table row, and of Col when the rows
   wrap. */
typedef struct {
    const int64_t *lo, *hi, *col;
    int64_t da, dtotal;
} strip;

static inline strip prefix_strip(const int64_t *t, int64_t n, int64_t x0, int64_t x1)
{
    const int64_t s = n + 1;
    const int64_t a0 = x0 < 0 ? -1 : x0 > n, a1 = x1 < 0 ? -1 : x1 > n;
    strip st = {t + (x0 - a0 * n) * s, t + (x1 - a1 * n) * s, t + n * s, a1 - a0, 0};
    st.dtotal = st.hi[n] - st.lo[n] + st.da * st.col[n];
    return st;
}

static inline int64_t strip_prefix(const strip *st, int64_t n, int64_t y)
{
    const int64_t b = y < 0 ? -1 : y > n;
    const int64_t j = y - b * n;
    int64_t v = st->hi[j] - st->lo[j] + b * st->dtotal;
    if (st->da)
        v += st->da * st->col[j];
    return v;
}

/* Minority count of the (2k+1)^2 torus window centered at column j of the
   strip of rows [i - k, i + k + 1). */
static inline int64_t strip_minority(const strip *st, int64_t n, int64_t j, int64_t k)
{
    const int64_t area = (2 * k + 1) * (2 * k + 1);
    const int64_t c = strip_prefix(st, n, j + k + 1) - strip_prefix(st, n, j - k);
    return c < area - c ? c : area - c;
}

/* Minority count of the (2k+1)^2 torus window centered at (i, j). */
static inline int64_t window_minority(const int64_t *t, int64_t n, int64_t i, int64_t j, int64_t k)
{
    const strip st = prefix_strip(t, n, i - k, i + k + 1);
    return strip_minority(&st, n, j, k);
}

/* Center j of a row has read minority count m at level L.  Record L as its
   q when m passes, and file j in the bucket of the next level its scan
   reads: the first level above L whose bound is >= m, first[m] or L + 1,
   since a level whose bound is below m cannot pass.  Once m exceeds
   bound[R], no level passes and the scan of j ends. */
static inline void after_read(const int64_t *bound, const int32_t *first, int64_t R, int64_t L,
                              int64_t m, int64_t j, int32_t *q_row, int32_t *head, int32_t *link)
{
    if (m > bound[R])
        return;
    if (m <= bound[L])
        q_row[j] = (int32_t)L;
    const int64_t next = first[m] > L ? first[m] : L + 1;
    if (next <= R) {
        link[j] = head[next];
        head[next] = (int32_t)j;
    }
}

/* For every center c of the n x n torus, r(c), the largest rho <= R =
   (n-1)/2 whose window is single-type, into r_out, and q(c), the largest
   rho <= R whose window's minority count is at most bound[rho], into q_out.
   bound is non-negative and never falls as rho grows (the wrapper checks
   both); at the all-zero table q = r.  sat is the (n+1) x (n+1)
   summed-area table of the +1 indicator (grid.TorusPrefix).  Returns -1
   when the pass's buffers cannot be allocated.

   Windows at one center are nested, so their minority count never falls
   as rho grows.  The scan of one center reads levels in increasing order.
   It climbs while the window is single-type, from the left neighbor's r
   minus one (the radius-(rho-1) window at (i, j) lies inside the radius-rho
   window at (i, j-1)); it stops at r(c), and every level up to r(c) has
   minority 0 and passes.  It goes on from the count at which the climb
   stopped (after_read), so no window is read twice, and jumps over every
   level whose bound is below the count just read, through the table first
   of the first level whose bound reaches each count; q(c) is the largest
   read level that passes.

   The climb runs along the row, center by center.  The rest of the scan is
   grouped by level: a center whose next read is at level L waits in bucket
   L of its row, and the buckets drain in increasing L; each read files the
   center into the bucket of its next level, which lies above L, so it is
   drained later in the same sweep.  Every read of bucket L is then a window
   of rows [i - L, i + L + 1): the same two table rows and Col, whose strip
   is built once per bucket, where a scan center by center jumps between
   rows far apart.  The grouping cannot change the maps: which levels a
   center reads and what it records depend only on the table, bound and the
   counts of its own windows, never on another center's reads, so grouping
   reorders reads across centers only.  Each center reads exactly the
   levels of its own scan, in the same order, and gets the same q. */
int64_t segsim_radius_pass(const int64_t *sat, int64_t n, const int64_t *bound,
                           int32_t *r_out, int32_t *q_out)
{
    const int64_t R = (n - 1) / 2;
    /* head[L]: a center of bucket L, or -1; link[j]: the next center in
       j's bucket, or -1; first[m]: the first level whose bound is >= m. */
    int32_t *head = malloc((size_t)(R + 1) * sizeof *head);
    int32_t *link = malloc((size_t)n * sizeof *link);
    int32_t *first = malloc((size_t)(bound[R] + 1) * sizeof *first);
    if (head == NULL || link == NULL || first == NULL) {
        free(head);
        free(link);
        free(first);
        return -1;
    }
    for (int64_t m = 0, L = 0; m <= bound[R]; m++) {
        while (bound[L] < m)
            L++;
        first[m] = (int32_t)L;
    }
    for (int64_t i = 0; i < n; i++) {
        int32_t *r_row = r_out + i * n, *q_row = q_out + i * n;
        for (int64_t L = 0; L <= R; L++)
            head[L] = -1;
        int64_t r = 0;
        for (int64_t j = 0; j < n; j++) {
            if (r > 0)
                r--;
            int64_t minority = 0;
            while (r < R && (minority = window_minority(sat, n, i, j, r + 1)) == 0)
                r++;
            r_row[j] = q_row[j] = (int32_t)r;
            /* Below R, minority is now the count at level r + 1. */
            if (r < R)
                after_read(bound, first, R, r + 1, minority, j, q_row, head, link);
        }
        for (int64_t L = 0; L <= R; L++) {
            if (head[L] < 0)
                continue;
            const strip st = prefix_strip(sat, n, i - L, i + L + 1);
            for (int64_t j = head[L], next; j >= 0; j = next) {
                next = link[j];
                after_read(bound, first, R, L, strip_minority(&st, n, j, L), j, q_row, head, link);
            }
        }
    }
    free(head);
    free(link);
    free(first);
    return 0;
}

/* One cyclic line: out[j] = max{ x[b] : cyclic |j - b| <= x[b] } for
   0 <= x <= R = (n-1)/2.  Two monotone-deque passes over the line unrolled
   by R on each side, one for centers at or left of j and one for centers at
   or right of j.  A center makes every earlier one of no larger value
   redundant, so the deque holds decreasing values and its head is the
   largest value still reaching j.  reach and val hold n + R entries. */
static void dilate_line(const int32_t *x, int32_t *out, int64_t n, int64_t *reach, int32_t *val)
{
    const int64_t R = (n - 1) / 2;
    int64_t head = 0, tail = 0;
    for (int64_t p = -R; p < n; p++) {
        int32_t v = x[p < 0 ? p + n : p];
        while (tail > head && val[tail - 1] <= v)
            tail--;
        reach[tail] = p + v;
        val[tail++] = v;
        if (p < 0)
            continue;
        while (reach[head] < p)
            head++;
        out[p] = val[head];
    }
    head = tail = 0;
    for (int64_t p = n - 1 + R; p >= 0; p--) {
        int32_t v = x[p >= n ? p - n : p];
        while (tail > head && val[tail - 1] <= v)
            tail--;
        reach[tail] = p - v;
        val[tail++] = v;
        if (p >= n)
            continue;
        while (reach[head] > p)
            head++;
        if (val[head] > out[p])
            out[p] = val[head];
    }
}

/* out(u) = max{ v(c) : torus Chebyshev distance(u, c) <= v(c) } on the
   n x n torus, 0 <= v <= (n-1)/2.  The distance bound splits into a row
   bound and a column bound, and the largest value reaching (a, j) along row
   a is itself a value whose own radius reaches (a, j), so one line pass over
   the rows and one over the columns give the map.  Returns -1 when the
   line buffers cannot be allocated. */
int64_t segsim_dilate(const int32_t *v, int64_t n, int32_t *out)
{
    const int64_t R = (n - 1) / 2;
    int64_t *reach = malloc((size_t)(n + R) * sizeof *reach);
    int32_t *val = malloc((size_t)(n + R) * sizeof *val);
    int32_t *line = malloc((size_t)(2 * n) * sizeof *line);
    if (reach == NULL || val == NULL || line == NULL) {
        free(reach);
        free(val);
        free(line);
        return -1;
    }
    for (int64_t i = 0; i < n; i++)
        dilate_line(v + i * n, out + i * n, n, reach, val);
    for (int64_t j = 0; j < n; j++) {
        for (int64_t i = 0; i < n; i++)
            line[i] = out[i * n + j];
        dilate_line(line, line + n, n, reach, val);
        for (int64_t i = 0; i < n; i++)
            out[i * n + j] = line[n + i];
    }
    free(reach);
    free(val);
    free(line);
    return 0;
}
"""

# The runtime build takes no warning flags, so a new compiler warning cannot
# disable the engine; the test suite compiles the source with these flags and
# -Werror.  -O3 vectorises the flip's count update for the baseline
# instruction set of the machine type; -march=native is left out because the
# library's cache key names only that type, so a shared cache could hand the
# library to another CPU.
CFLAGS = ("-O3", "-shared", "-fPIC")


def _arr(dtype):
    return np.ctypeslib.ndpointer(dtype=dtype, flags=("C_CONTIGUOUS", "ALIGNED"))


_I64 = ctypes.c_int64
# (argtypes, restype) of each exported C function.
_SIGNATURES = {
    "segsim_run_chunk": ([
        _arr(np.int8), _arr(np.int32), _arr(np.int32), _arr(np.int64),
        _arr(np.int64),
        _I64, _I64, _I64, _I64,
        _I64, ctypes.c_double,
        _arr(np.float64), _arr(np.float64), _I64,
        _I64, _arr(np.int64), _arr(np.float64), _arr(np.int64), _arr(np.int64),
        _I64, _arr(np.int64), _arr(np.int32),
        _arr(np.int64), _arr(np.float64),
    ], _I64),
    "segsim_radius_pass": ([_arr(np.int64), _I64, _arr(np.int64), _arr(np.int32), _arr(np.int32)],
                           _I64),
    "segsim_dilate": ([_arr(np.int32), _I64, _arr(np.int32)], _I64),
}


def _cache_dir() -> str:
    """Per-user cache directory for the built library (created if needed)."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "segsim")
    try:
        os.makedirs(path, exist_ok=True)
        if os.access(path, os.W_OK | os.X_OK):
            return path
    except OSError:
        pass
    # Shared temp directory: only a directory this user owns and nobody
    # else can write is trusted to hold a library that will be loaded.
    path = os.path.join(tempfile.gettempdir(), f"segsim-{os.getuid()}")
    os.makedirs(path, mode=0o700, exist_ok=True)
    st = os.stat(path)
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise OSError(f"{path} is not a private directory of this user")
    return path


def _library_path() -> str:
    key = "\0".join((C_SOURCE, " ".join(CFLAGS), platform.machine()))
    digest = hashlib.sha256(key.encode()).hexdigest()[:32]
    return os.path.join(_cache_dir(), f"kernels-{digest}.so")


def _build(path: str) -> None:
    gcc = shutil.which("gcc")
    if gcc is None:
        raise OSError("gcc not found on PATH")
    fd, tmp = tempfile.mkstemp(suffix=".so.tmp", dir=os.path.dirname(path))
    os.close(fd)
    try:
        proc = subprocess.run(
            [gcc, *CFLAGS, "-x", "c", "-", "-o", tmp],
            input=C_SOURCE, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise OSError(f"gcc exited with {proc.returncode}: {proc.stderr.strip()}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _load():
    """(loaded library, None) or (None, reason it could not be built or loaded)."""
    try:
        path = _library_path()
        if not os.path.exists(path):
            _build(path)
        lib = ctypes.CDLL(path)
        for name, (argtypes, restype) in _SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, restype
    except (OSError, AttributeError) as exc:
        return None, f"compiled kernels unavailable: {exc}"
    return lib, None


def _wrap_run_chunk(fn):
    def run_chunk(types, sc, elig_pos, elig_cells, cand, m, n, w, N, emax, phi, t, flips,
                  max_flips, max_time, u_batch, e_batch, rec_every, rec_flip, rec_time,
                  rec_phi, rec_m, audit_on, audit_cells, audit_pre):
        """One batch of flips in C; same arguments and results as the python
        reference dynamics._run_chunk_py, whose flip is the three-pass
        grid._flip_cell.  cand is the int64 scratch for one flip's insertions
        ((2w+1)^2 entries); the trace and audit buffers are filled from index 0;
        max_time is math.inf when time is not limited.

        Returns (m, phi, t, flips, rec_count, audit_count, status).
        """
        B = u_batch.shape[0]
        if not 1 <= 2 * w + 1 <= n:
            raise ValueError("the window must fit the torus: 2w+1 <= n")
        if not (types.size == sc.size == elig_pos.size == elig_cells.size == n * n):
            raise ValueError("state arrays must all hold n*n cells")
        if cand.size < (2 * w + 1) ** 2:
            raise ValueError("the candidate buffer is shorter than the (2w+1)^2 window")
        if e_batch.shape[0] != B:
            raise ValueError("uniform and exponential batches differ in length")
        rec_size = min(a.size for a in (rec_flip, rec_time, rec_phi, rec_m))
        if rec_every > 0 and rec_size < B // rec_every + 1:
            raise ValueError("trace buffers are shorter than one batch needs")
        if audit_on and min(audit_cells.size, audit_pre.size) < B:
            raise ValueError("audit buffers are shorter than the batch")
        io = np.array([m, phi, flips, 0, 0], dtype=np.int64)
        t_io = np.array([t], dtype=np.float64)
        status = fn(
            types, sc, elig_pos, elig_cells, cand,
            n, w, N, emax,
            max_flips, max_time,
            u_batch, e_batch, B,
            rec_every, rec_flip, rec_time, rec_phi, rec_m,
            bool(audit_on), audit_cells, audit_pre,
            io, t_io,
        )
        m, phi, flips, rec_count, audit_count = (int(x) for x in io)
        return m, phi, float(t_io[0]), flips, rec_count, audit_count, int(status)

    return run_chunk


def _wrap_radius_pass(fn):
    def radius_pass(sat, n, bound):
        """(r, q), two per-center radius maps (n x n int32) from one pass: r(c)
        the largest single-type radius <= (n-1)/2, and q(c) the largest
        rho <= (n-1)/2 whose window's minority count is at most bound[rho]
        (q = r at the all-zero table).  sat is the int64 (n+1) x (n+1)
        summed-area table of the +1 grid, grid.TorusPrefix.sat; bound is an
        int64 table of length (n-1)/2 + 1."""
        R = (n - 1) // 2
        if sat.dtype != np.int64 or sat.shape != (n + 1, n + 1):
            raise ValueError(f"the table must be int64 of shape ({n + 1}, {n + 1})")
        if bound.dtype != np.int64 or bound.shape != (R + 1,):
            raise ValueError(f"the bound table must be int64 of length {R + 1}")
        if bound.min() < 0 or (np.diff(bound) < 0).any():
            raise ValueError("the bound table must be non-negative and non-decreasing")
        r, q = np.empty((n, n), dtype=np.int32), np.empty((n, n), dtype=np.int32)
        if fn(np.ascontiguousarray(sat), n, np.ascontiguousarray(bound), r, q) != 0:
            raise MemoryError("row buffers for the radius pass")
        return r, q

    return radius_pass


def _wrap_dilate(fn):
    def dilate(v):
        """out(u) = max{ v(c) : torus Chebyshev distance(u, c) <= v(c) } for an
        n x n int32 map with values in [0, (n-1)/2]."""
        n = v.shape[0]
        if v.dtype != np.int32 or v.shape != (n, n):
            raise ValueError("the radius map must be a square int32 array")
        if v.size and not 0 <= v.min() <= v.max() <= (n - 1) // 2:
            raise ValueError("radii must lie in [0, (n-1)/2]")
        out = np.empty((n, n), dtype=np.int32)
        if fn(np.ascontiguousarray(v), n, out) != 0:
            raise MemoryError("line buffers for the dilation")
        return out

    return dilate


_WRAPPERS = {
    "run_chunk": ("segsim_run_chunk", _wrap_run_chunk),
    "radius_pass": ("segsim_radius_pass", _wrap_radius_pass),
    "dilate": ("segsim_dilate", _wrap_dilate),
}


def _resolve() -> None:
    lib, error = _load()
    globals().update(
        {name: None if lib is None else wrap(getattr(lib, cname))
         for name, (cname, wrap) in _WRAPPERS.items()},
        load_error=error,
    )


def __getattr__(name):
    # The kernels and load_error are resolved on first use, so importing the
    # package never starts a compiler.
    if name in _WRAPPERS or name == "load_error":
        _resolve()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def numba_available() -> bool:
    """True when the compiled C kernel is loaded.

    The name dates from an earlier numba kernel and is kept for callers
    that read it, such as the benchmark's environment record.
    """
    if "run_chunk" not in globals():
        _resolve()
    return globals()["run_chunk"] is not None
