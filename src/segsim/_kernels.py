"""Compiled C kernels for the flip loop, the initial same-type counts, the
region maps, first-passage times and breadth-first paths, loaded with
ctypes.

The flip kernel takes the same arguments and gives the same results as the
pure-python chunk executor dynamics._run_chunk_py.  Each takes the state's
arrays, its eligible count m, time t and flip count, the flip and time
limits, one pre-drawn (uniform, exponential) batch and an optional per-flip
log, and returns (m, t, flips, status); from one batch both leave the same
state.  The log holds, for each flip of the batch, the flipped cell, its
pre-flip same count k and the t and m after the flip; the driver builds
the audit and the trace from it, so neither executor knows the trace
interval or the Lyapunov sum.  Per flip, every
same_count in the (2w+1)^2 window changes, and the eligible list then sees
swap-removals of the members whose count now exceeds the eligibility
bound, in row-major window order, followed by appends of the non-members
whose count is now within it, in row-major window order.  That order is
the contract: the python reference (grid._flip_cell) keeps it in three
passes over the window.  The kernel works on a private int16 copy of
type * same_count for the length of a chunk, so every other signed count
in the window moves by the flipped agent's new type, +1 or -1.  It flips
in two sweeps.  The first updates every row's column runs (one run per
row, or two where the window wraps) eight lanes at a time with gcc vector
extensions and no branch on the counts, and flags each run in which a
count crossed the bound, which it did exactly when its old value is one
of two constants.  The second, once every count is final, walks only the
flagged runs and the flipped cell's run in row-major window order,
removing as it goes and buffering the appends (the proof is in the C
comment).  The int16 counts need N = (2w+1)^2 <= 32767, that is w <= 90.
The counts a state starts from (grid.box_same_counts is the reference)
are window sums from two row buffers: per-column counts of the window's
rows, moved down one row at a time, and one running sum along each row.

The region kernels are the two steps of regions.py.  One radius pass gives
every center two radii: r(c), the largest single-type radius, and q(c), the
largest radius whose minority count is within an integer table of the
largest passing count per radius; at the ratio test's table q(c) is the
largest almost-monochromatic radius, and at the all-zero table q = r.
Along each row the pass climbs single-type windows center by center, from
one below the largest r of the left and the three upper neighbors, then
tries the top of the left neighbor's passing run and the level below it,
climbs on from a level that passes (a passing level certifies that q is at
least that high) while levels pass, and reads the remaining windows grouped
by level, so the reads of one level share two table rows.  A window of
radius L - 1 at an 8-neighbor lies inside the radius-L window, so once an
upper neighbor's count exceeds the table's last entry at level d, no level
above d is read.  The own-radius dilation turns r into M and q into M'.
It drops every center whose 8-neighbor holds a larger value (its square
lies inside that neighbor's), pushes one deque entry per run of the
centers left on a line, fills the output segment by segment, and unrolls
each line by the map's maximum.  The radius pass reads the state's one
(n+1) x (n+1) prefix table of the +1 grid (grid.TorusPrefix), which the
prefix-table kernel builds, and reaches wrapping windows through the
table's periodic extension.  They do integer arithmetic only.

The passage-time kernel is a Dijkstra on the implicit 4-neighbour grid, for
percolation.fpp_min_passage_time, whose csgraph Dijkstra through a virtual
source is the reference.  It returns the same float, not an approximation
of it: a path's time is the left fold of its site weights, a rounded sum
that never falls as the running time grows, so every correct Dijkstra pops
each site at the same minimum, and a site's first push already carries it.
So each site is pushed once, into a bucket queue: buckets of width
wmax / 1022 (wmax the largest finite weight) on a ring of 1024 lists, of
which only the current bucket sits in a binary heap; when wmax is 0 or too
small for a finite width, the heap alone orders the search (the proofs are
in the C comment).  The breadth-first search on a slot array of
4-neighbours (percolation._n4_neighbors) is a FIFO search that scans each
node's slots in order and stops at the first target it discovers, so it
returns the tree path of csgraph's breadth_first_order, its reference,
without building a sparse graph.  Every kernel's results are asserted
equal to the numpy/python/csgraph reference by the test suite.

The C source below is compiled on first use with ``gcc -O3 -shared -fPIC``
into ``$XDG_CACHE_HOME/segsim`` (default ``~/.cache/segsim``), or into a
private ``segsim-<uid>`` directory under the system temp directory when
that cannot be written.  The library's file name is a sha256 of the source,
the flags and the machine type, and it is written through a temp file and
``os.replace``, so concurrent processes never load a half-written file and
later runs only hash, stat and load.  Every load refreshes the library's
mtime, and a build removes the libraries of other source versions that no
process has opened for ``STALE_DAYS`` (30) days.  Without gcc, or when the
build or load fails, ``run_chunk``, ``box_counts``, ``radius_pass``,
``dilate``, ``prefix_table``, ``passage_time`` and ``grid_bfs`` are None,
``load_error`` says why, and the reference code runs instead.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import time

import numpy as np

# Chunk status codes shared with dynamics.py.
STATUS_BATCH_DONE = 0
STATUS_NO_ELIGIBLE = 1
STATUS_FLIP_LIMIT = 2
STATUS_TIME_LIMIT = 3
# The flip kernel keeps type * same_count in int16, so N = (2w+1)^2 must fit.
INT16_MAX = 32767

C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { BATCH_DONE = 0, NO_ELIGIBLE = 1, FLIP_LIMIT = 2, TIME_LIMIT = 3 };

/* Eight int16 lanes: SSE2 on x86_64, NEON on aarch64, the baseline of each
   machine type, so no -march flag is needed. */
typedef int16_t v8s __attribute__((vector_size(16)));
typedef int64_t v2l __attribute__((vector_size(16)));

static inline v8s splat8(int16_t x)
{
    const v8s v = {x, x, x, x, x, x, x, x};
    return v;
}

/* Adds dv to the run of 8 * full + (live lanes of tail) counts from p:
   full vectors unmasked, then one tail vector whose dead lanes add 0 and
   store back what they read.  Returns whether a live lane's old value was
   was_in or was_out, that is whether a count of the run crossed. */
static inline int update_run(int16_t *p, int64_t full, v8s tail, v8s dv, v8s was_in, v8s was_out)
{
    v8s x, hit = splat8(0);
    for (int64_t f = 0; f < full; f++, p += 8) {
        memcpy(&x, p, sizeof x);
        hit |= (x == was_in) | (x == was_out);
        x += dv;
        memcpy(p, &x, sizeof x);
    }
    memcpy(&x, p, sizeof x);
    hit |= ((x == was_in) | (x == was_out)) & tail;
    x += dv & tail;
    memcpy(p, &x, sizeof x);
    const v2l any = (v2l)hit;
    return (any[0] | any[1]) != 0;
}

/* io[0..1] in and out: m, flips.  *t is read and written; max_time is
   +inf when time is not limited.  Returns the status, or -1 when the
   signed count array or the candidate buffer (the (2w+1)^2 candidates and
   the crossing flags of the window's row runs) cannot be allocated (the
   state is then untouched).  N <= 32767.
   With log_on, flip i of the chunk (from 0) writes its cell, its pre-flip
   count k and the t and m after it to log_*[i]; each log array then holds
   at least B entries.  Same arguments and results as the python reference
   executor (dynamics._run_chunk_py).

   The chunk works on a private signed array s = type * same_count (int16,
   n^2 + 8 entries), built from types and sc when it starts and written
   back when it ends.  Counts include the agent itself, so 1 <= count <= N
   and the sign of s is the type.

   Uniform update.  A flip of an agent of type t sets d = -t, its new type.
   Every other cell of the window gains one agent of type d and loses one
   of type t, so its count rises by 1 when it is of type d and falls by 1
   otherwise; in both cases s += d.  So the count update reads s alone and
   no types.  The flipped cell is set to d * (N - k) before the update, and
   the update's +d leaves it at d * (N - k + 1), its count after the flip.

   Crossing is an equality test.  Every other cell's count moves by
   exactly 1, so it crosses emax (<= emax on one side, > emax on the other)
   exactly when a type-d count goes from emax to emax + 1, that is s goes
   from d * emax to d * (emax + 1), or a type-t count goes from emax + 1 to
   emax, that is s goes from -d * (emax + 1) to -d * emax.  These two new
   values have opposite signs (a flip needs an eligible agent, so emax >=
   k >= 1), and no other cell takes either of them: a type-d cell's new s
   is d times its new count, which is emax + 1 only when it crossed, and a
   type-t cell's new s is -d times its new count, which is emax only when
   it crossed.  So the walk below finds the crossed cells by their new
   values.  The flipped cell never holds a crossing value before its
   update: d * (N - k) has the sign of d * emax and N - k > (N - 1) / 2 >=
   emax (emax = min(K - 1, N + 1 - K) and N is odd).

   Two sweeps per flip do what the python reference flip (grid._flip_cell)
   does in three passes: all updates, then removals in row-major window
   order, then insertions in row-major window order.  The window's
   columns, c0 - w .. c0 + w mod n, form one run of contiguous cells per
   row, or two when they wrap; the runs' offsets, lengths and lane masks
   are computed once per flip.

   Sweep 1 (update) adds d to every count of the 2w+1 rows, 8 lanes at a
   time with gcc vector extensions and no branch on the counts: the full
   vectors of a run need no mask, and its tail vector is masked, so the
   lanes past the run's end add 0 and store back what they read (the 8
   padding entries keep the last row's over-read inside the buffer).  Each
   run ORs its lanes whose old value is d * emax or -d * (emax + 1) and
   stores one crossed flag.

   Sweep 2 (walk) starts once every count is final.  In row-major window
   order it visits, in the flagged runs and the flipped cell's run, the
   cells that crossed and the flipped cell.  It swap-removes a cell from the eligible list at once
   when it is a member whose count now exceeds emax, and appends it to
   cand when it is not a member and its count is now <= emax; after the
   walk cand is appended to the list in its order.  The result is
   bit-identical to the three passes:
   - 2w+1 <= n, so each cell appears once in the window, and every count
     is final when the walk starts; the count a visit tests is the count
     the second and third passes read.
   - A removal reads only the removed cell's own count and the list
     positions, and it moves only the last member, which stays a member.
   - No cell joins the list during the walk (insertions wait for cand), and
     none leaves it except at its own visit.  So a cell's membership at its
     visit is its membership before the flip, the removals are the same
     cells in the same row-major order, and cand is the row-major set the
     third pass inserts: a removed cell's count exceeds emax, so the third
     pass never re-inserts it, and the insertions start at the same m.
   - Skipping the other cells changes nothing.  A cell's membership before
     the flip is count <= emax before the flip; a cell whose count did not
     cross keeps count <= emax when it is a member and count > emax when
     it is not, and the passes would neither remove nor insert it.  The
     flipped cell, a member, may leave the list, and it holds no crossing
     value, so its run is always walked and the cell always visited.
   Every membership decision reads |s|, the count itself. */
int64_t segsim_run_chunk(
    int8_t *restrict types, int32_t *restrict sc, int32_t *elig_pos, int64_t *elig_cells,
    int64_t n, int64_t w, int64_t N, int64_t emax,
    int64_t max_flips, double max_time,
    const double *u_batch, const double *e_batch, int64_t B,
    int64_t log_on, int64_t *log_cell, int32_t *log_k, double *log_t, int64_t *log_m,
    int64_t *io, double *t_io)
{
    const int64_t nn = n * n, side = 2 * w + 1;
    int16_t *restrict s = malloc((size_t)(nn + 8) * sizeof *s);
    /* cand[0 .. side^2), then crossed[row * 2 + run] for the window's rows. */
    int64_t *cand = malloc((size_t)(side * side) * sizeof *cand + (size_t)(2 * side));
    if (s == NULL || cand == NULL) {
        free(s);
        free(cand);
        return -1;
    }
    uint8_t *crossed = (uint8_t *)(cand + side * side);
    for (int64_t v = 0; v < nn; v++)
        s[v] = (int16_t)(types[v] * sc[v]);
    memset(s + nn, 0, 8 * sizeof *s);

    int64_t m = io[0], flips = io[1];
    const int64_t flips0 = flips;
    int64_t consumed = 0;
    int64_t status;
    double t = *t_io;
    const int32_t em = (int32_t)emax;
    const v8s lane = {0, 1, 2, 3, 4, 5, 6, 7};

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
        const int16_t d = s[cell] > 0 ? -1 : 1;
        const int32_t k = -d * s[cell];
        s[cell] = (int16_t)(d * (N - k));
        /* Old values that cross, and the new values they take. */
        const v8s dv = splat8(d), was_in = splat8((int16_t)(d * em)),
                  was_out = splat8((int16_t)(-d * (em + 1)));
        const int16_t left = (int16_t)(d * (em + 1)), joined = (int16_t)(-d * em);

        /* The window's columns, c0 - w .. c0 + w mod n, as column runs:
           [lo, lo + len[0]) and, when they wrap (runs = 2), [0, len[1]).
           Run j updates full[j] vectors unmasked and one tail vector whose
           live lanes are tail[j]. */
        const int64_t lo = c0 < w ? c0 - w + n : c0 - w;
        const int64_t len0 = lo + side <= n ? side : n - lo, len[2] = {len0, side - len0};
        const int runs = len[1] > 0 ? 2 : 1;
        const int64_t start[2] = {lo, 0}, full[2] = {len[0] / 8, len[1] / 8};
        const v8s tail[2] = {lane < splat8((int16_t)(len[0] % 8)),
                             lane < splat8((int16_t)(len[1] % 8))};
        const int64_t top = r0 - w < 0 ? r0 - w + n : r0 - w;

        /* Sweep 1: update every count of the window, flag runs that crossed. */
        for (int64_t i = 0, r = top; i < side; i++, r = r + 1 == n ? 0 : r + 1) {
            crossed[2 * i] = update_run(s + r * n + lo, full[0], tail[0], dv, was_in, was_out);
            if (runs == 2)
                crossed[2 * i + 1] = update_run(s + r * n, full[1], tail[1], dv, was_in, was_out);
        }
        crossed[2 * w + (c0 < lo)] = 1; /* the flipped cell's run */

        /* Sweep 2: walk the flagged runs in row-major window order. */
        int64_t n_cand = 0;
        for (int64_t i = 0, r = top; i < side; i++, r = r + 1 == n ? 0 : r + 1) {
            for (int j = 0; j < runs; j++) {
                if (!crossed[2 * i + j])
                    continue;
                const int64_t v0 = r * n + start[j], v1 = v0 + len[j];
                for (int64_t v = v0; v < v1; v++) {
                    const int16_t x = s[v];
                    if (x != left && x != joined && v != cell)
                        continue;
                    const int32_t c = x < 0 ? -x : x;
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

        if (log_on) {
            const int64_t i = consumed - 1;
            log_cell[i] = cell;
            log_k[i] = k;
            log_t[i] = t;
            log_m[i] = m;
        }
        flips++;
    }
    if (flips > flips0) { /* a chunk without a flip changed nothing */
        for (int64_t v = 0; v < nn; v++) {
            const int16_t x = s[v];
            types[v] = (int8_t)(x < 0 ? -1 : 1);
            sc[v] = x < 0 ? -x : x;
        }
    }
    free(s);
    free(cand);
    io[0] = m; io[1] = flips;
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
   rows and Col, so a read costs two entries of each table row, and of Col
   when the rows wrap.  The difference of the row totals P(x, n) = Row(i) +
   a T is read only for a window that wraps in y. */
typedef struct {
    const int64_t *lo, *hi, *col;
    int64_t da;
} strip;

static inline strip prefix_strip(const int64_t *t, int64_t n, int64_t x0, int64_t x1)
{
    const int64_t s = n + 1;
    const int64_t a0 = x0 < 0 ? -1 : x0 > n, a1 = x1 < 0 ? -1 : x1 > n;
    const strip st = {t + (x0 - a0 * n) * s, t + (x1 - a1 * n) * s, t + n * s, a1 - a0};
    return st;
}

/* Minority count of the (2k+1)^2 torus window centered at column j of the
   strip of rows [i - k, i + k + 1), 0 <= j < n and 2k + 1 <= n.  Its
   columns [y0, y1) have -n < y0 < n and 0 < y1 < 2n, and at most one end
   lies outside [0, n], which adds one row-total difference. */
static inline int64_t strip_minority(const strip *st, int64_t n, int64_t j, int64_t k)
{
    const int64_t area = (2 * k + 1) * (2 * k + 1);
    const int64_t y0 = j - k, y1 = j + k + 1;
    const int64_t j0 = y0 < 0 ? y0 + n : y0, j1 = y1 > n ? y1 - n : y1;
    int64_t c = st->hi[j1] - st->lo[j1] - st->hi[j0] + st->lo[j0];
    if (st->da)
        c += st->da * (st->col[j1] - st->col[j0]);
    if (y0 < 0 || y1 > n)
        c += st->hi[n] - st->lo[n] + st->da * st->col[n];
    return c < area - c ? c : area - c;
}

/* Minority count of the (2k+1)^2 torus window centered at (i, j). */
static inline int64_t window_minority(const int64_t *t, int64_t n, int64_t i, int64_t j, int64_t k)
{
    const strip st = prefix_strip(t, n, i - k, i + k + 1);
    return strip_minority(&st, n, j, k);
}

/* What the radius pass knows about the row it scans.  bound, first (the
   first level whose bound is >= m, for m <= bound[R]) and R are fixed.
   head[L] is a center of bucket L, or -1, and link[j] the next center in
   j's bucket.  dead[j] is a level of center j of the row from which every
   minority count exceeds bound[R] (R + 1 when none is known), and up_dead
   the same for the row above once that row is finished. */
typedef struct {
    const int64_t *bound;
    const int32_t *first;
    int64_t R;
    int32_t *q_row, *head, *link, *dead, *up_dead;
} row_scan;

/* Center j has minority count m at level L, or more when m fails.  Record
   L as its q when m passes, and file j in the bucket of the next level
   its scan reads: the first level above L whose bound is >= m, first[m]
   or L + 1, since a level whose bound is below m cannot pass.  Once m
   exceeds bound[R], no level passes, L is j's dead level and its scan
   ends; it ends too when the next level is dead. */
static inline void after_read(row_scan *s, int64_t L, int64_t m, int64_t j)
{
    if (m > s->bound[s->R]) {
        s->dead[j] = (int32_t)L;
        return;
    }
    if (m <= s->bound[L])
        s->q_row[j] = (int32_t)L;
    const int64_t next = s->first[m] > L ? s->first[m] : L + 1;
    if (next < s->dead[j]) {
        s->link[j] = s->head[next];
        s->head[next] = (int32_t)j;
    }
}

/* For every center c of the n x n torus, r(c), the largest rho <= R =
   (n-1)/2 whose window is single-type, into r_out, and q(c), the largest
   rho <= R whose window's minority count is at most bound[rho], into q_out.
   bound is non-negative and never falls as rho grows (the wrapper checks
   both); at the all-zero table q = r.  sat is the (n+1) x (n+1)
   summed-area table of the +1 indicator (grid.TorusPrefix).  Returns -1
   when the pass's buffers cannot be allocated.

   Two containments bound the counts.  Windows at one center are nested,
   so their minority count never falls as rho grows.  And for an
   8-neighbor c' of c and 1 <= L <= R, the radius-(L-1) window at c' lies
   inside the radius-L window at c (2L + 1 <= n, so a torus window holds
   distinct cells), and each type's count in a subwindow is at most its
   count in the window, so minority(c, L) >= minority(c', L-1).  Hence
   r(c) >= r(c') - 1, and when c' is dead at d (its count at level d
   exceeds bound[R]), c is dead at d + 1 (d + 1 <= R).

   The scan of one center reads levels in increasing order.  It climbs
   while the window is single-type, from max(r) - 1 over its left, up-left,
   up and up-right neighbors (those of row i - 1 from row 1 on), which r(c)
   is at least by the second containment, and stops at r(c): every level
   up to r(c) has minority 0 and passes.  Then it guesses from the left
   neighbor, with h = h(j-1) the top of the left neighbor's inline run
   (below; 0 at j = 0).  When h > r + 2 it reads level h and starts there
   when h passes (a guess at r + 2 could skip only the read of r + 1 that
   it costs).  When h fails and h - 1 > r + 1, it reads level h - 1; when
   that passes, q(c) is at least h - 1 and the scan goes on from level h,
   already read and failed.  Otherwise it starts at r + 1, whose count the
   climb has just read.  From its start it climbs inline while levels
   pass, and h(j) is the last passing level of that run: r(c) when its
   first level fails, h - 1 after the second guess, R when r(c) = R or the
   run reaches R.  At the first level L that fails, with count m, the scan
   goes on from m (after_read): it jumps over every level whose bound is
   below m, through the table first of the first level whose bound reaches
   each count, so no window is read twice.  q(c) is the largest read level
   that passes.

   No level at or above a center's dead level is read: it fails, and the
   scan takes its count as bound[R] + 1, which ends it.  A center's dead
   level starts at the least d + 1 over its up-left, up and up-right
   neighbors dead at d (by the second containment), and is lowered to the
   level of a read whose count exceeds bound[R].

   That is q(c) = max{ rho : minority(c, rho) <= bound[rho] }, because every
   level the scan does not read either lies below a read level that passes,
   so it cannot be the maximum, or fails.  The levels up to r(c) lie at or
   below r(c), which passes; those between r + 1 and a passing guess lie
   below that guess.  Failed guesses skip nothing: the scan goes on from
   r + 1 as without them.  A level jumped over after a read with count m
   has bound < m <= its own count, since counts never fall as rho grows, so
   it fails, and so does every level at or above a dead level.  A guess is
   a read like any other, so it can certify that q(c) is at least its
   level but never record a level that fails.

   The climbs run along the row, center by center.  The rest of the scan is
   grouped by level: a center whose next read is at level L waits in bucket
   L of its row, and the buckets drain in increasing L; each read files the
   center into the bucket of its next level, which lies above L, so it is
   drained later in the same sweep.  Every read of bucket L is then a window
   of rows [i - L, i + L + 1): the same two table rows and Col, whose strip
   is built once per bucket, where a scan center by center jumps between
   rows far apart.  The grouping cannot change the maps.  Which levels a
   center reads depends on the table, bound, the counts of its own windows,
   the left neighbor's h and the row above's r and dead levels, which are
   themselves functions of the table and bound alone (the inline pass of a
   row runs before its buckets drain, and the row above is finished), so
   grouping reorders reads across centers only, and whatever the reads,
   the maximum they find is q(c) by the argument above. */
int64_t segsim_radius_pass(const int64_t *sat, int64_t n, const int64_t *bound,
                           int32_t *r_out, int32_t *q_out)
{
    const int64_t R = (n - 1) / 2, over = bound[R] + 1;
    /* head: R + 1 entries; link, dead, up_dead: n each; first: bound[R] + 1. */
    int32_t *buf = malloc((size_t)(R + 1 + 3 * n + over) * sizeof *buf);
    if (buf == NULL)
        return -1;
    int32_t *head = buf, *first = buf + R + 1 + 3 * n;
    row_scan s = {bound, first, R, NULL, head, head + R + 1, head + R + 1 + n,
                  head + R + 1 + 2 * n};
    for (int64_t m = 0, L = 0; m <= bound[R]; m++) {
        while (bound[L] < m)
            L++;
        first[m] = (int32_t)L;
    }
    for (int64_t j = 0; j < n; j++)
        s.up_dead[j] = (int32_t)(R + 1); /* row n - 1 is not scanned before row 0 */
    for (int64_t i = 0; i < n; i++) {
        int32_t *r_row = r_out + i * n, *q_row = q_out + i * n;
        const int32_t *r_up = i > 0 ? r_row - n : r_row, *up_dead = s.up_dead;
        int32_t *dead = s.dead;
        s.q_row = q_row;
        for (int64_t L = 0; L <= R; L++)
            head[L] = -1;
        int64_t r = 0, h = 0;
        for (int64_t j = 0; j < n; j++) {
            const int64_t a = j == 0 ? n - 1 : j - 1, b = j + 1 == n ? 0 : j + 1;
            int64_t d = up_dead[a] < up_dead[j] ? up_dead[a] : up_dead[j];
            d = (up_dead[b] < d ? up_dead[b] : d) + 1;
            const int64_t dj = d <= R ? d : R + 1;
            dead[j] = (int32_t)dj;
            if (i > 0) {
                r = r_up[a] > r ? r_up[a] : r;
                r = r_up[j] > r ? r_up[j] : r;
                r = r_up[b] > r ? r_up[b] : r;
            }
            if (r > 0)
                r--;
            int64_t m = 0;
            while (r < R && (m = r + 1 < dj ? window_minority(sat, n, i, j, r + 1) : over) == 0)
                r++;
            r_row[j] = q_row[j] = (int32_t)r;
            if (r == R) {
                h = R;
                continue;
            }
            /* m is the count at level L = r + 1, until a guess passes. */
            int64_t L = r + 1;
            if (h > L + 1) {
                const int64_t mh = h < dj ? window_minority(sat, n, i, j, h) : over;
                if (mh <= bound[h]) {
                    L = h;
                    m = mh;
                } else if (h - 1 > L) {
                    const int64_t mg = h - 1 < dj ? window_minority(sat, n, i, j, h - 1) : over;
                    if (mg <= bound[h - 1]) {
                        q_row[j] = (int32_t)(h - 1);
                        L = h;
                        m = mh;
                    }
                }
            }
            while (m <= bound[L] && L < R) {
                q_row[j] = (int32_t)L;
                L++;
                m = L < dj ? window_minority(sat, n, i, j, L) : over;
            }
            h = m <= bound[L] ? L : L - 1;
            after_read(&s, L, m, j);
        }
        for (int64_t L = 0; L <= R; L++) {
            if (head[L] < 0)
                continue;
            const strip st = prefix_strip(sat, n, i - L, i + L + 1);
            for (int64_t j = head[L], next; j >= 0; j = next) {
                next = s.link[j];
                after_read(&s, L, strip_minority(&st, n, j, L), j);
            }
        }
        s.dead = s.up_dead;
        s.up_dead = dead;
    }
    free(buf);
    return 0;
}

/* The same-type count of every agent of the n x n torus, into out: the +1
   count of its (2w+1)^2 window, or N minus it for an agent that is not +1,
   as grid.box_same_counts gives it; 1 <= 2w + 1 <= n and n^2 < 2^31.  col
   holds, per column, the +1 count of the 2w+1 rows around row i, and moves
   down one row at a time (one row in, one row out); line is the running
   sum of col along the row extended by w columns on each side with wrap,
   so a window's count is the difference of two line entries 2w + 1 apart.
   No n x n buffer is needed.  Returns -1 when the two row buffers cannot
   be allocated. */
int64_t segsim_box_counts(const int8_t *types, int64_t n, int64_t w, int32_t *out)
{
    const int64_t side = 2 * w + 1, N = side * side;
    int32_t *col = calloc((size_t)n, sizeof *col);
    int32_t *line = malloc((size_t)(n + side) * sizeof *line);
    if (col == NULL || line == NULL) {
        free(col);
        free(line);
        return -1;
    }
    for (int64_t d = -w; d <= w; d++) {
        const int8_t *row = types + (d < 0 ? d + n : d) * n;
        for (int64_t j = 0; j < n; j++)
            col[j] += row[j] > 0;
    }
    for (int64_t i = 0; i < n; i++) {
        if (i > 0) {
            const int64_t in = i + w < n ? i + w : i + w - n, gone = i - w - 1 < 0 ? i - w - 1 + n : i - w - 1;
            const int8_t *add = types + in * n, *drop = types + gone * n;
            for (int64_t j = 0; j < n; j++)
                col[j] += (add[j] > 0) - (drop[j] > 0);
        }
        line[0] = 0;
        for (int64_t k = 0; k < n + 2 * w; k++) {
            const int64_t c = k - w < 0 ? k - w + n : k - w < n ? k - w : k - w - n;
            line[k + 1] = line[k] + col[c];
        }
        const int8_t *t = types + i * n;
        int32_t *o = out + i * n;
        for (int64_t j = 0; j < n; j++) {
            const int32_t plus = line[j + side] - line[j];
            o[j] = t[j] > 0 ? plus : (int32_t)N - plus;
        }
    }
    free(col);
    free(line);
    return 0;
}

/* One cyclic line restricted to its kept centers: out[j] = max{ x[b] :
   keep[b], cyclic |j - b| <= x[b] }, or -1 when no kept center reaches j,
   for 0 <= x[b] <= vmax <= (n-1)/2 at kept b.  Kept neighbors hold equal
   values (see segsim_dilate), so the kept centers of [0, n) form runs [s,
   e] of one value v, and a run reaches exactly [s - v, e + v]; a run cut
   in two at the line's ends reaches what its two pieces reach.  Two
   monotone-deque passes push one entry per run: the forward pass at s,
   reaching e + v on the right, the backward pass at e, reaching s - v on
   the left.  The line is unrolled by vmax on each side, since a center
   reaches no further than its own value: before [0, n), the forward pass
   pushes, shifted by -n, the runs that end within vmax of n, and the
   backward pass, shifted by +n, those that start within vmax of 0.  An
   entry makes every earlier one of no larger value redundant (its run
   lies beyond theirs in the pass's direction), so the deque holds
   decreasing values and its head is the largest value still reaching j.
   Between two pushes the output is filled segment by segment: the head's
   value up to the end of its reach, then the next head's.  edge holds n +
   1 entries, reach and val n + 2. */
static void dilate_line(const int32_t *x, const uint8_t *keep, int32_t *out, int64_t n,
                        int64_t vmax, int64_t *edge, int64_t *reach, int32_t *val)
{
    /* edge[2t] is the first center of run t and edge[2t + 1] one past its
       last. */
    int64_t k = 0;
    uint8_t prev = 0;
    for (int64_t p = 0; p < n; p++) {
        uint64_t word;
        if (p + 8 <= n && (memcpy(&word, keep + p, 8), word == prev * 0x0101010101010101u)) {
            p += 7; /* eight flags like the last one: no edge */
            continue;
        }
        edge[k] = p;
        k += keep[p] != prev;
        prev = keep[p];
    }
    if (prev)
        edge[k++] = n;
    const int64_t runs = k / 2;

    int64_t head = 0, tail = 0, p = 0, t = runs;
    while (t > 0 && edge[2 * t - 1] - 1 + vmax >= n)
        t--;
    for (; t < runs; t++) { /* runs reaching in across the start, at -n */
        const int32_t v = x[edge[2 * t]];
        while (tail > head && val[tail - 1] <= v)
            tail--;
        reach[tail] = edge[2 * t + 1] - 1 - n + v;
        val[tail++] = v;
    }
    for (t = 0;; t++) {
        const int64_t stop = t < runs ? edge[2 * t] : n;
        while (p < stop) {
            while (head < tail && reach[head] < p)
                head++;
            const int64_t end = head < tail && reach[head] < stop ? reach[head] + 1 : stop;
            const int32_t fill = head < tail ? val[head] : -1;
            for (; p < end; p++)
                out[p] = fill;
        }
        if (t == runs)
            break;
        const int32_t v = x[stop];
        while (tail > head && val[tail - 1] <= v)
            tail--;
        reach[tail] = edge[2 * t + 1] - 1 + v;
        val[tail++] = v;
    }
    head = tail = 0;
    p = n - 1;
    t = -1;
    while (t + 1 < runs && edge[2 * t + 2] - vmax < 0)
        t++;
    for (; t >= 0; t--) { /* runs reaching in across the end, at +n */
        const int32_t v = x[edge[2 * t]];
        while (tail > head && val[tail - 1] <= v)
            tail--;
        reach[tail] = edge[2 * t] + n - v;
        val[tail++] = v;
    }
    for (t = runs - 1;; t--) {
        const int64_t stop = t >= 0 ? edge[2 * t + 1] : 0;
        while (p >= stop) {
            while (head < tail && reach[head] > p)
                head++;
            if (head == tail) {
                p = stop - 1;
                break;
            }
            const int64_t end = reach[head] > stop ? reach[head] : stop;
            const int32_t fill = val[head];
            for (int64_t q = end; q <= p; q++)
                out[q] = out[q] > fill ? out[q] : fill;
            p = end - 1;
        }
        if (t < 0)
            break;
        const int32_t v = x[edge[2 * t]];
        while (tail > head && val[tail - 1] <= v)
            tail--;
        reach[tail] = edge[2 * t] - v;
        val[tail++] = v;
    }
}

/* keep[j] = x[j] >= 0 and x[j] >= m[j - 1], m[j], m[j + 1] (cyclic), for
   0 <= j < n: the centers of a line whose value reaches the largest of m
   around them. */
static void mark_peaks(const int32_t *x, const int32_t *m, uint8_t *keep, int64_t n)
{
    for (int64_t j = 1; j + 1 < n; j++) {
        const int32_t a = m[j - 1] > m[j + 1] ? m[j - 1] : m[j + 1];
        keep[j] = (x[j] >= 0) & (x[j] >= m[j]) & (x[j] >= a);
    }
    for (int64_t j = 0; j < n; j += n > 1 ? n - 1 : 1) { /* the two ends, whose neighbors wrap */
        const int32_t l = m[j == 0 ? n - 1 : j - 1], r = m[j + 1 == n ? 0 : j + 1];
        keep[j] = x[j] >= 0 && x[j] >= m[j] && x[j] >= l && x[j] >= r;
    }
}

/* Columns per block of the column pass: 16 int32 are one 64-byte line. */
enum { DILATE_BLOCK = 16 };

/* out(u) = max{ v(c) : torus Chebyshev distance(u, c) <= v(c) } on the
   n x n torus, 0 <= v <= (n-1)/2.  The distance bound splits into a row
   bound and a column bound: for any set S of centers, the largest value
   of S reaching (a, j) along row a, g(a, j), is itself the value of a
   center of S whose own radius reaches (a, j), so one line pass over the
   rows and one over the columns of g give the maximum over S (a row of S
   that reaches no (a, j) gives g = -1, which reaches nothing).
   Both passes keep only centers that can matter.  A center c with an
   8-neighbor c' of larger value, v(c') >= v(c) + 1, has its square inside
   the square of c', which carries the larger value; so does every center
   c' dominates in turn, and values rise along the chain, so it ends at a
   center no neighbor dominates.  Dropping every dominated center from S
   therefore changes no maximum, and the row pass keeps the centers whose
   value is at least the largest of their 3 x 3 block, read from the rows
   above and below.  The column pass reads the lines of g, where an entry
   with a line neighbor of larger value is dominated the same way, so it
   keeps the entries of non-negative value at least both line neighbors.
   In both, two adjacent kept centers each hold at least the other's
   value, so kept runs hold one value, as dilate_line needs.  The row
   pass's output takes values of v only, so both passes unroll by the
   map's maximum.  The column pass copies DILATE_BLOCK columns at a time
   into lines and back, a row's block being one cache line.  Returns -1
   when the line buffers cannot be allocated. */
int64_t segsim_dilate(const int32_t *v, int64_t n, int32_t *out)
{
    int64_t vmax = 0;
    for (int64_t u = 0; u < n * n; u++)
        vmax = v[u] > vmax ? v[u] : vmax;
    /* edge: n + 1 entries, then reach: n + 2; val: n + 2, then a column
       block's lines in and out, then colmax: n. */
    int64_t *edge = malloc((size_t)(2 * n + 3) * sizeof *edge);
    int32_t *val = malloc((size_t)(n + 2 + 2 * DILATE_BLOCK * n + n) * sizeof *val);
    uint8_t *keep = malloc((size_t)n);
    if (edge == NULL || val == NULL || keep == NULL) {
        free(edge);
        free(val);
        free(keep);
        return -1;
    }
    int64_t *reach = edge + n + 1;
    int32_t *in = val + n + 2, *res = in + DILATE_BLOCK * n, *colmax = res + DILATE_BLOCK * n;
    for (int64_t i = 0; i < n; i++) {
        const int32_t *mid = v + i * n, *up = v + (i == 0 ? n - 1 : i - 1) * n,
                      *down = v + (i + 1 == n ? 0 : i + 1) * n;
        for (int64_t j = 0; j < n; j++) {
            const int32_t m = up[j] > down[j] ? up[j] : down[j];
            colmax[j] = m > mid[j] ? m : mid[j];
        }
        mark_peaks(mid, colmax, keep, n);
        dilate_line(mid, keep, out + i * n, n, vmax, edge, reach, val);
    }
    for (int64_t j0 = 0; j0 < n; j0 += DILATE_BLOCK) {
        const int64_t B = n - j0 < DILATE_BLOCK ? n - j0 : DILATE_BLOCK;
        for (int64_t i = 0; i < n; i++)
            for (int64_t b = 0; b < B; b++)
                in[b * n + i] = out[i * n + j0 + b];
        for (int64_t b = 0; b < B; b++) {
            const int32_t *x = in + b * n;
            mark_peaks(x, x, keep, n);
            dilate_line(x, keep, res + b * n, n, vmax, edge, reach, val);
        }
        for (int64_t i = 0; i < n; i++)
            for (int64_t b = 0; b < B; b++)
                out[i * n + j0 + b] = res[b * n + i];
    }
    free(edge);
    free(val);
    free(keep);
    return 0;
}

/* The (n+1) x (n+1) summed-area table of an n x n 0/1 grid: sat[i][j]
   sums rows [0, i) and columns [0, j).  Row i + 1 is row i plus the
   running sum along grid row i. */
void segsim_prefix_table(const uint8_t *plus, int64_t n, int64_t *sat)
{
    const int64_t s = n + 1;
    memset(sat, 0, (size_t)s * sizeof *sat);
    for (int64_t i = 0; i < n; i++) {
        const uint8_t *row = plus + i * n;
        const int64_t *up = sat + i * s;
        int64_t *cur = sat + (i + 1) * s, run = 0;
        cur[0] = 0;
        for (int64_t j = 0; j < n; j++) {
            run += row[j];
            cur[j + 1] = up[j + 1] + run;
        }
    }
}

/* A passage-time queue entry: a site's time and its flat index. */
typedef struct {
    double d;
    int32_t v;
} pt_entry;

static inline void pt_push(pt_entry *heap, int64_t *len, pt_entry e)
{
    int64_t i = (*len)++;
    while (i > 0 && heap[(i - 1) / 2].d > e.d) {
        heap[i] = heap[(i - 1) / 2];
        i = (i - 1) / 2;
    }
    heap[i] = e;
}

static inline pt_entry pt_pop(pt_entry *heap, int64_t *len)
{
    const pt_entry top = heap[0], last = heap[--*len];
    int64_t i = 0;
    for (int64_t k = 1; k < *len; k = 2 * i + 1) {
        if (k + 1 < *len && heap[k + 1].d < heap[k].d)
            k++;
        if (heap[k].d >= last.d)
            break;
        heap[i] = heap[k];
        i = k;
    }
    heap[i] = last;
    return top;
}

/* The passage-time queue (the proofs are above segsim_passage_time): the
   binary heap of bucket cur, and a ring of PT_RING singly linked lists, one
   per later bucket, threaded through next[] with each site's time in key[].
   PT_RING is a power of two, so bucket b's list is head[b mod PT_RING]. */
enum { PT_RING = 1024 };

typedef struct {
    pt_entry *heap;
    int64_t len, listed, cur;
    double inv, *key;
    int32_t *next, head[PT_RING];
} pt_queue;

/* Queue site v at time d (finite, >= 0): in the heap when its bucket is
   cur, else at the head of its bucket's list. */
static inline void pt_place(pt_queue *q, int32_t v, double d)
{
    const int64_t b = (int64_t)(d * q->inv);
    if (b == q->cur) {
        pt_push(q->heap, &q->len, (pt_entry){d, v});
        return;
    }
    int32_t *slot = &q->head[b & (PT_RING - 1)];
    q->key[v] = d;
    q->next[v] = *slot;
    *slot = v;
    q->listed++;
}

/* Pop the least queued time into *e; when the heap is empty, first step cur
   to the next bucket with a list and heap that list.  Returns 0 when
   nothing is queued. */
static inline int pt_take(pt_queue *q, pt_entry *e)
{
    if (q->len == 0) {
        if (q->listed == 0)
            return 0;
        int32_t v;
        do
            q->cur++;
        while ((v = q->head[q->cur & (PT_RING - 1)]) < 0);
        q->head[q->cur & (PT_RING - 1)] = -1;
        for (; v >= 0; v = q->next[v], q->listed--)
            pt_push(q->heap, &q->len, (pt_entry){q->key[v], v});
    }
    *e = pt_pop(q->heap, &q->len);
    return 1;
}

/* The minimum over 4-neighbour paths of the h x wd grid from a site of src
   (ns flat indices) to a site of tgt (nt flat indices) of the summed site
   weights w, both endpoints included, into *out (+inf when no target is
   reached).  w is non-negative or +inf, never NaN; the indices lie in the
   grid, src and tgt are disjoint, and h wd < 2^31 (the wrapper checks all
   of these).  Returns -1 when the buffers cannot be allocated.

   A Dijkstra on the implicit grid that pushes each site at most once.
   Each source is seeded at 0.0 + w[s], as a virtual source joined to every
   source by an edge of weight w[s] would give it.  When a site pops at time
   c, each neighbour u not yet pushed is pushed at fl(c + w[u]).  A site
   whose first time is +inf is marked and dropped: every later time for it
   is +inf too, and a target reached only at +inf leaves *out at +inf, as
   one never reached does.  The first popped target ends the search.

   Exact times.  A path's time is the left fold fl(...fl(w_s + w_1)... +
   w_t), and the rounded sum fl(a + x) never falls as a grows and is >= a
   for x >= 0.  Sites pop in non-decreasing time (next paragraph), so the
   first neighbour of u to pop has the least time of u's neighbours, and
   u's first push is the least time any neighbour could give it: a second
   push could never lower it, and a seed 0.0 + w[s] is <= fl(c + w[s]) for
   every c >= 0.  So each site pops at the minimum of the fold over all
   paths to it, the float of any other correct Dijkstra over the same grid
   (csgraph's, in percolation.py), whatever the queue's tie order; the
   first popped target has the least time of the targets.

   The global-minimum pop.  A time d falls in bucket b(d) = floor(fl(d
   inv)), inv = fl((PT_RING - 2) / wmax) with wmax the largest finite
   weight.  fl(d inv) never falls as d grows, so neither does b, and
   b(x) < b(y) implies x < y.  cur is the bucket being popped: a push in
   bucket cur goes into the heap, any other onto its bucket's list, and
   when the heap is empty cur steps to the next bucket with a list, which
   is moved into the heap.  A push is >= the time it came from, so it never
   lands below cur; every time left on a list lies in a later bucket and is
   larger than every time in the heap, whose minimum is therefore the least
   queued time.

   The ring bound: every queued b lies in [cur, cur + PT_RING), so no two
   buckets share a list and the first list found after cur is the least
   queued bucket.  A push d comes from a pop c with b(c) = cur, and
   d <= fl(c + wmax).  With u = 2^-53, each rounding is within a factor
   1 +- u plus 2^-1075 on underflow, so
     fl(d inv) - fl(c inv) <= (c + wmax)(1 + u)^2 inv - c inv (1 - u) + 2^-1074
                           <= (PT_RING - 2)(1 + u)^3 + 3.01 u c inv + 2^-1074.
   c is at most the fold along a simple path, fewer than 2^31 weights of at
   most wmax, so c <= 2^31 wmax (1 + u)^(2^31) and c inv < 2^41; then
   3.01 u c inv < 0.001, fl(d inv) < fl(c inv) + PT_RING - 1 and
   b(d) <= cur + PT_RING - 1.  The seeds lie in [0, wmax] = [0, fl(0 +
   wmax)], so the bound holds from cur = 0 on.

   Degenerate widths.  Every queued time is finite and below 2^42 / inv, so
   fl(d inv) is finite, never NaN, and its int64 cast is its floor.  When
   wmax is 0, or so small (subnormal, say) that inv would be +inf, inv is
   0.0 instead: every b is 0 = cur, and the heap alone orders the search. */
int64_t segsim_passage_time(const double *w, int64_t h, int64_t wd, const int64_t *src,
                            int64_t ns, const int64_t *tgt, int64_t nt, double *out)
{
    enum { TARGET = 1, PUSHED = 2, NO_E = 4, NO_W = 8, NO_S = 16, NO_N = 32 };
    const int64_t size = h * wd;
    pt_queue q = {.heap = malloc((size_t)(size + 1) * sizeof *q.heap),
                  .key = malloc((size_t)(size + 1) * sizeof *q.key),
                  .next = malloc((size_t)(size + 1) * sizeof *q.next)};
    uint8_t *flag = calloc((size_t)(size + 1), sizeof *flag);
    if (q.heap == NULL || q.key == NULL || q.next == NULL || flag == NULL) {
        free(q.heap);
        free(q.key);
        free(q.next);
        free(flag);
        return -1;
    }
    for (int i = 0; i < PT_RING; i++)
        q.head[i] = -1;
    for (int64_t r = 0; r < h; r++) {
        flag[r * wd] |= NO_W;
        flag[r * wd + wd - 1] |= NO_E;
    }
    for (int64_t c = 0; c < wd; c++) {
        flag[c] |= NO_N;
        flag[size - wd + c] |= NO_S;
    }
    for (int64_t i = 0; i < nt; i++)
        flag[tgt[i]] |= TARGET;
    double wmax = 0.0;
    for (int64_t v = 0; v < size; v++)
        wmax = w[v] > wmax && w[v] < INFINITY ? w[v] : wmax;
    q.inv = (PT_RING - 2) / wmax;
    if (!(q.inv < INFINITY))
        q.inv = 0.0;
    for (int64_t i = 0; i < ns; i++) {
        const int64_t s = src[i];
        const double d = 0.0 + w[s];
        if (!(flag[s] & PUSHED) && d < INFINITY)
            pt_place(&q, (int32_t)s, d);
        flag[s] |= PUSHED;
    }
    const int32_t step[4] = {1, -1, (int32_t)wd, -(int32_t)wd};
    const uint8_t edge[4] = {NO_E, NO_W, NO_S, NO_N};
    double best = INFINITY;
    pt_entry e;
    while (pt_take(&q, &e)) {
        const uint8_t f = flag[e.v];
        if (f & TARGET) {
            best = e.d;
            break;
        }
        for (int k = 0; k < 4; k++) {
            const int32_t u = e.v + step[k];
            if ((f & edge[k]) || (flag[u] & PUSHED))
                continue;
            flag[u] |= PUSHED;
            const double d = e.d + w[u];
            if (d < INFINITY)
                pt_place(&q, u, d);
        }
    }
    *out = best;
    free(q.heap);
    free(q.key);
    free(q.next);
    free(flag);
    return 0;
}

/* Breadth-first search on the directed graph of size nodes whose arcs out
   of node v are the nonnegative slots nbr[4 v .. 4 v + 3], scanned in slot
   order (percolation._N4).  The search starts at source, marks a node when
   it discovers it, and stops at the first node of tgt (nt indices) it
   discovers, or at source itself when it is a target; the tree path from
   source to that node, read off the predecessors, goes into path, and the
   return value is its node count (0 when no target is reached).  The order
   of discovery is that of csgraph's breadth_first_order from source, which
   scans each node's stored arcs in order, so the path is the one
   percolation._bfs_path reads from csgraph.  Returns -1 when the buffers
   cannot be allocated and -2 on a slot outside [-1, size) or a size outside
   [1, 2^31); source and tgt lie in [0, size) (the wrapper checks them). */
int64_t segsim_grid_bfs(const int32_t *nbr, int64_t size, int64_t source, const int64_t *tgt,
                        int64_t nt, int64_t *path)
{
    if (size < 1 || size > INT32_MAX)
        return -2;
    for (int64_t k = 0; k < 4 * size; k++)
        if (nbr[k] < -1 || nbr[k] >= size)
            return -2;
    /* pred[v]: the node that discovered v, or -1 while v is undiscovered. */
    int32_t *pred = malloc((size_t)size * sizeof *pred);
    int32_t *queue = malloc((size_t)size * sizeof *queue);
    uint8_t *is_tgt = calloc((size_t)size, sizeof *is_tgt);
    if (pred == NULL || queue == NULL || is_tgt == NULL) {
        free(pred);
        free(queue);
        free(is_tgt);
        return -1;
    }
    for (int64_t v = 0; v < size; v++)
        pred[v] = -1;
    for (int64_t i = 0; i < nt; i++)
        is_tgt[tgt[i]] = 1;
    int64_t hit = is_tgt[source] ? source : -1, head = 0, tail = 0;
    pred[source] = (int32_t)source;
    queue[tail++] = (int32_t)source;
    while (hit < 0 && head < tail) {
        const int32_t *out = nbr + 4 * (int64_t)queue[head];
        for (int k = 0; k < 4; k++) {
            const int32_t u = out[k];
            if (u < 0 || pred[u] >= 0)
                continue;
            pred[u] = queue[head];
            if (is_tgt[u]) {
                hit = u;
                break;
            }
            queue[tail++] = u;
        }
        head++;
    }
    int64_t len = 0;
    if (hit >= 0) {
        for (int64_t v = hit; v != source; v = pred[v])
            len++;
        len++;
        for (int64_t v = hit, i = len - 1; i >= 0; v = pred[v], i--)
            path[i] = v;
    }
    free(pred);
    free(queue);
    free(is_tgt);
    return len;
}
"""

# The runtime build takes no warning flags, so a new compiler warning cannot
# disable the engine; the test suite compiles the source with these flags and
# -Werror.  The flip's count update is written with 16-byte gcc vector
# extensions, which compile to the baseline instruction set of the machine
# type (SSE2 on x86_64, NEON on aarch64); -march=native is left out because
# the library's cache key names only that type, so a shared cache could hand
# the library to another CPU.
CFLAGS = ("-O3", "-shared", "-fPIC")
# A build removes the cached libraries of other source versions that have
# not been opened for this many days.
STALE_DAYS = 30


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
    # Libraries of other source versions that no process has opened for
    # STALE_DAYS: _load refreshes the mtime of every library it opens, so a
    # version still in use (another checkout sharing this cache) is kept.
    cutoff = time.time() - STALE_DAYS * 86400
    for old in glob.glob(os.path.join(os.path.dirname(path), "kernels-*.so")):
        if old == path:
            continue
        try:
            if os.stat(old).st_mtime < cutoff:
                os.remove(old)
        except FileNotFoundError:
            pass  # removed by another process meanwhile


def _load():
    """(loaded library, None) or (None, reason it could not be built or loaded)."""
    try:
        path = _library_path()
        if not os.path.exists(path):
            _build(path)
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            # Removed or replaced after the existence check: build once more.
            _build(path)
            lib = ctypes.CDLL(path)
        try:
            os.utime(path)  # in use: not stale for _build's pruning
        except OSError:
            pass
        for cname, argtypes, restype, _ in _WRAPPERS.values():
            fn = getattr(lib, cname)
            fn.argtypes, fn.restype = argtypes, restype
    except (OSError, AttributeError) as exc:
        return None, f"compiled kernels unavailable: {exc}"
    return lib, None


def _wrap_run_chunk(fn):
    def run_chunk(types, sc, elig_pos, elig_cells, m, n, w, N, emax, t, flips, max_flips,
                  max_time, u_batch, e_batch, log_on, log_cell, log_k, log_t, log_m):
        """One batch of flips in C; same arguments and results as the python
        reference dynamics._run_chunk_py, whose flip is the three-pass
        grid._flip_cell.  With log_on, flip i of the batch writes its cell,
        pre-flip count and the t and m after it to log_cell[i], log_k[i],
        log_t[i] and log_m[i]; max_time is math.inf when time is not limited.

        Returns (m, t, flips, status).
        """
        B = u_batch.shape[0]
        if not 1 <= 2 * w + 1 <= n:
            raise ValueError("the window must fit the torus: 2w+1 <= n")
        if N > INT16_MAX:
            raise ValueError(f"the signed int16 counts need N <= {INT16_MAX}, got N={N}")
        if not (types.size == sc.size == elig_pos.size == elig_cells.size == n * n):
            raise ValueError("state arrays must all hold n*n cells")
        if e_batch.shape[0] != B:
            raise ValueError("uniform and exponential batches differ in length")
        if log_on and min(a.size for a in (log_cell, log_k, log_t, log_m)) < B:
            raise ValueError("log buffers are shorter than the batch")
        io = np.array([m, flips], dtype=np.int64)
        t_io = np.array([t], dtype=np.float64)
        status = fn(
            types, sc, elig_pos, elig_cells,
            n, w, N, emax,
            max_flips, max_time,
            u_batch, e_batch, B,
            bool(log_on), log_cell, log_k, log_t, log_m,
            io, t_io,
        )
        if status < 0:
            raise MemoryError("signed count or candidate buffer for the flip kernel")
        return int(io[0]), float(t_io[0]), int(io[1]), int(status)

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


def _wrap_prefix_table(fn):
    def prefix_table(plus):
        """The (n+1) x (n+1) int64 summed-area table of an n x n uint8 0/1
        grid (grid.TorusPrefix.sat): entry [i, j] sums rows [0, i) and
        columns [0, j)."""
        n = plus.shape[0]
        if plus.dtype != np.uint8 or plus.shape != (n, n):
            raise ValueError("the grid must be a square uint8 array")
        sat = np.empty((n + 1, n + 1), dtype=np.int64)
        fn(np.ascontiguousarray(plus), n, sat)
        return sat

    return prefix_table


def _wrap_passage_time(fn):
    def passage_time(weights, sources, targets):
        """The minimum over 4-neighbour paths of the h x wd float64 site
        weights from a flat index of sources to one of targets, both ends'
        weights included; +inf when no target is reached.  The weights are
        non-negative or +inf, and the two index sets are disjoint (checked by
        percolation.fpp_min_passage_time)."""
        h, wd = weights.shape
        if weights.dtype != np.float64:
            raise ValueError("the weights must be float64")
        if h * wd >= 2**31:
            raise ValueError("the lattice must hold fewer than 2^31 cells")
        src = np.ascontiguousarray(sources, dtype=np.int64)
        tgt = np.ascontiguousarray(targets, dtype=np.int64)
        for idx in (src, tgt):
            if idx.size and not 0 <= idx.min() <= idx.max() < h * wd:
                raise ValueError("flat indices must lie in the lattice")
        out = np.empty(1, dtype=np.float64)
        if fn(np.ascontiguousarray(weights), h, wd, src, src.size, tgt, tgt.size, out) != 0:
            raise MemoryError("queue for the passage time")
        return float(out[0])

    return passage_time


def _wrap_box_counts(fn):
    def box_counts(types, w):
        """The int32 same-type counts of grid.box_same_counts for the n x n
        int8 types on the torus and windows of side 2w+1."""
        n = types.shape[0]
        if types.dtype != np.int8 or types.shape != (n, n):
            raise ValueError("the types must be a square int8 array")
        if n * n >= 2**31:
            raise ValueError("the torus must hold fewer than 2^31 cells")
        if not 1 <= 2 * w + 1 <= n:
            raise ValueError("the window must fit the torus: 1 <= 2w+1 <= n")
        out = np.empty((n, n), dtype=np.int32)
        if fn(np.ascontiguousarray(types), n, w, out) != 0:
            raise MemoryError("row buffers for the same-type counts")
        return out

    return box_counts


def _wrap_grid_bfs(fn):
    def grid_bfs(nbr, source, targets):
        """Flat indices source .. t of the breadth-first tree path to the first
        node t of targets (an index or a sequence of them) that a search from
        source discovers, or None; nbr is the int32 (h, w, 4) slot array of
        percolation._n4_neighbors, each slot a flat index or -1, scanned in
        slot order."""
        if nbr.dtype != np.int32 or nbr.ndim != 3 or nbr.shape[2] != 4:
            raise ValueError("the slots must be an int32 array of shape (h, w, 4)")
        size = nbr.shape[0] * nbr.shape[1]
        if size >= 2**31:
            raise ValueError("the lattice must hold fewer than 2^31 cells")
        tgt = np.ascontiguousarray(targets, dtype=np.int64).ravel()
        if not 0 <= source < size or (tgt.size and not 0 <= tgt.min() <= tgt.max() < size):
            raise ValueError("source and targets must lie in the lattice")
        path = np.empty(size, dtype=np.int64)
        length = fn(np.ascontiguousarray(nbr), size, source, tgt, tgt.size, path)
        if length == -1:
            raise MemoryError("queue for the breadth-first search")
        if length < 0:
            raise ValueError("slots must lie in [-1, h*w)")
        return path[:length].tolist() if length else None

    return grid_bfs


def _arr(dtype):
    return np.ctypeslib.ndpointer(dtype=dtype, flags=("C_CONTIGUOUS", "ALIGNED"))


_I64 = ctypes.c_int64


# Per exported kernel: its C name, argtypes, restype and python wrapper.
_WRAPPERS = {
    "run_chunk": ("segsim_run_chunk", [
        _arr(np.int8), _arr(np.int32), _arr(np.int32), _arr(np.int64),
        _I64, _I64, _I64, _I64,
        _I64, ctypes.c_double,
        _arr(np.float64), _arr(np.float64), _I64,
        _I64, _arr(np.int64), _arr(np.int32), _arr(np.float64), _arr(np.int64),
        _arr(np.int64), _arr(np.float64),
    ], _I64, _wrap_run_chunk),
    "radius_pass": ("segsim_radius_pass",
                    [_arr(np.int64), _I64, _arr(np.int64), _arr(np.int32), _arr(np.int32)],
                    _I64, _wrap_radius_pass),
    "dilate": ("segsim_dilate", [_arr(np.int32), _I64, _arr(np.int32)], _I64, _wrap_dilate),
    "prefix_table": ("segsim_prefix_table", [_arr(np.uint8), _I64, _arr(np.int64)], None,
                     _wrap_prefix_table),
    "passage_time": ("segsim_passage_time",
                     [_arr(np.float64), _I64, _I64, _arr(np.int64), _I64, _arr(np.int64), _I64,
                      _arr(np.float64)],
                     _I64, _wrap_passage_time),
    "box_counts": ("segsim_box_counts", [_arr(np.int8), _I64, _I64, _arr(np.int32)], _I64,
                   _wrap_box_counts),
    "grid_bfs": ("segsim_grid_bfs",
                 [_arr(np.int32), _I64, _I64, _arr(np.int64), _I64, _arr(np.int64)],
                 _I64, _wrap_grid_bfs),
}


def _resolve() -> None:
    lib, error = _load()
    globals().update(
        {name: None if lib is None else wrap(getattr(lib, cname))
         for name, (cname, _, _, wrap) in _WRAPPERS.items()},
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
