"""Self-compiled C kernels: union-find merge scans, k-truss, z-buffer,
super trees.

Four sequential loops resist numpy: the union-find scan of Algorithms 1
and 3 (:func:`repro.accel.tree.merge_scan`), the k-truss peel behind
Algorithm 3's input (:func:`repro.measures.ktruss.truss_numbers`), the
terrain renderer's face-by-face z-buffer
(:func:`repro.terrain.render.render_mesh`), and the chain walk of
Algorithm 2 (:func:`repro.core.super_tree.build_super_tree`).  This
module compiles the scan (path-halving find, union by size, group-root
caching, in two flavours), the bin-sort truss peel of Wang & Cheng
(PVLDB 2012), the z-buffer and the super-tree walk **at first use**
from the embedded C source below, using
whatever system compiler is around (``$CC``, else ``cc``/``gcc``/
``clang``), and loads it with stdlib :mod:`ctypes`.  No build system,
no wheels, no new dependencies.

Design points:

* **Disk cache.**  The shared object lands in ``$REPRO_NATIVE_CACHE``
  (default ``~/.cache/repro-native``) under a name keyed by a sha256 of
  (C source, compile command and flags, compiler version banner,
  platform), so compilation happens once per machine and source, flag
  or toolchain changes recompile cleanly.
  The compile writes to a unique temp name and ``os.replace``\\ s it in,
  so concurrent first calls (parallel CLI runs and test processes
  sharing the cache) race benignly.
* **Zero copy.**  The wrappers hand the kernels the existing flat int64
  numpy arrays via ``ndarray.ctypes`` — no marshalling; scratch arrays
  are allocated as numpy buffers on the Python side so the C code never
  mallocs.
* **Soft fallback.**  When no toolchain exists or compilation fails,
  :func:`available` returns False, one warning is logged, the
  ``repro_accel_native_fallbacks_total`` counter is bumped, and
  :func:`repro.accel.resolve` degrades ``native`` to ``vector`` — the
  numpy+Python tier keeps every output byte-identical, so nothing above
  this layer needs to care.
* **Observability.**  The whole first-use attempt (cache probe, compile,
  load, self-test) runs inside an ``accel.compile`` trace span and is
  observed into the ``repro_accel_compile_seconds`` histogram;
  ``repro_accel_native_available`` reports the outcome as a gauge and
  :func:`info` feeds the ``/stats`` endpoint.

The kernels are semantically *identical* to their Python counterparts —
same tie-breaks, same union-by-size swaps, same journal entry order,
truss numbers that no peel order changes, z-buffer depths computed
with the numpy pass's exact double operations in the same order (the
flags forbid fused multiply-adds), and super nodes numbered and filled
in the Python walk's order — which keeps the backend out of every
cache key.  Known-answer self-tests run right after each load,
and a poisoned or stale cached ``.so`` is deleted, not trusted.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import shlex
import shutil
import subprocess
import time
from pathlib import Path
from typing import Optional

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace

__all__ = [
    "C_SOURCE",
    "available",
    "load",
    "merge_scan",
    "replay_scan",
    "truss_peel",
    "zbuffer",
    "super_tree",
    "cache_dir",
    "info",
    "reset",
]

_LOG = logging.getLogger("repro.accel.native")

_COMPILE_SECONDS = obs_metrics.REGISTRY.histogram(
    "repro_accel_compile_seconds",
    "Wall time of the native kernel first-use attempt "
    "(cache probe + compile + load + self-test).",
)
_FALLBACKS = obs_metrics.REGISTRY.counter(
    "repro_accel_native_fallbacks_total",
    "Native tier unavailable; calls degraded to the vector tier.",
    ("reason",),
)
_AVAILABLE = obs_metrics.REGISTRY.gauge(
    "repro_accel_native_available",
    "1 when the native kernels compiled and loaded, 0 after a fallback.",
)

#: The compile flags after ``$CC``.  ``-ffp-contract=off`` keeps every
#: double product and sum of the z-buffer rounded on its own, as numpy
#: rounds them: a fused multiply-add (which ``-march=native`` in ``$CC``
#: would otherwise allow) could move a depth or an inside test by one
#: ulp.  The integer kernels are unaffected.
CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

# ----------------------------------------------------------------------
# The kernels.  int64 indices and counts, matching the arrays the Python
# tiers already use, and float64 coordinates; callers allocate all
# buffers (no malloc in C).
# ----------------------------------------------------------------------
C_SOURCE = r"""
#include <stdint.h>

typedef int64_t i64;

/* Path-halving find, mutating uf in place (UnionFind.find). */
static i64 find_halve(i64 *uf, i64 x) {
    while (uf[x] != x) {
        uf[x] = uf[uf[x]];
        x = uf[x];
    }
    return x;
}

/* Plain find, no compression (RollbackUnionFind.find). */
static i64 find_plain(const i64 *uf, i64 x) {
    while (uf[x] != x)
        x = uf[x];
    return x;
}

/* repro.accel.tree.merge_scan: replay pre-ordered merge steps and fill
 * the forest's parent array.  cur/prev are the n_steps step arrays;
 * parent, uf, size, tree_root are caller-allocated length-n_items
 * scratch/output (initialised here).  The group-root caching mirrors
 * the Python scan: a step's current item opens as a singleton, so its
 * representative starts as itself and is maintained through the
 * group's unions without a find. */
void repro_merge_scan(i64 n_items, i64 n_steps,
                      const i64 *cur, const i64 *prev,
                      i64 *parent, i64 *uf, i64 *size, i64 *tree_root) {
    i64 i, prev_cur = -1, root_v = -1;
    for (i = 0; i < n_items; i++) {
        parent[i] = -1;
        uf[i] = i;
        size[i] = 1;
        tree_root[i] = i;
    }
    for (i = 0; i < n_steps; i++) {
        i64 v = cur[i], x;
        if (v != prev_cur) {
            prev_cur = v;
            root_v = v;
        }
        x = find_halve(uf, prev[i]);
        if (root_v != x) {
            parent[tree_root[x]] = v;
            if (size[root_v] < size[x]) {
                i64 t = root_v; root_v = x; x = t;
            }
            uf[x] = root_v;
            size[root_v] += size[x];
            tree_root[root_v] = v;
        }
    }
}

/* repro.stream's journalled full build: Algorithm 1 over CSR adjacency
 * in processing order, with RollbackUnionFind semantics (no path
 * compression, union by size, history of absorbed roots) and the same
 * journal triples attach_vertex records, so the Python side can rewind
 * through checkpoints exactly as if it had built the state itself.
 *
 * order/pos: the processing permutation and its inverse (rank).
 * ckpt_pos: positions i where a checkpoint is taken *before* item i is
 * processed (strict scalar decreases, precomputed by the caller);
 * ckpt_jlen[j] receives the journal length at checkpoint j — which
 * equals the union-find history length, since every journal entry
 * coincides with exactly one union.
 * parent/tree_root/uf_parent/uf_size: length-n outputs (initialised
 * here).  journal: capacity n triples (child, merged, prev_root).
 * history: capacity n absorbed roots.  Returns the journal length. */
i64 repro_replay_scan(i64 n, const i64 *indptr, const i64 *indices,
                      const i64 *order, const i64 *pos,
                      i64 n_ckpt, const i64 *ckpt_pos, i64 *ckpt_jlen,
                      i64 *parent, i64 *tree_root,
                      i64 *uf_parent, i64 *uf_size,
                      i64 *journal, i64 *history) {
    i64 i, nj = 0, c = 0;
    for (i = 0; i < n; i++) {
        parent[i] = -1;
        tree_root[i] = i;
        uf_parent[i] = i;
        uf_size[i] = 1;
    }
    for (i = 0; i < n; i++) {
        i64 v, rank_v, p;
        while (c < n_ckpt && ckpt_pos[c] == i)
            ckpt_jlen[c++] = nj;
        v = order[i];
        rank_v = pos[v];
        for (p = indptr[v]; p < indptr[v + 1]; p++) {
            i64 w = indices[p];
            if (pos[w] < rank_v) {
                i64 rv = find_plain(uf_parent, v);
                i64 rw = find_plain(uf_parent, w);
                if (rv != rw) {
                    i64 child = tree_root[rw];
                    i64 rx = rv, ry = rw;
                    parent[child] = v;
                    if (uf_size[rx] < uf_size[ry]) {
                        i64 t = rx; rx = ry; ry = t;
                    }
                    uf_parent[ry] = rx;
                    uf_size[rx] += uf_size[ry];
                    history[nj] = ry;
                    journal[3 * nj] = child;
                    journal[3 * nj + 1] = rx;
                    journal[3 * nj + 2] = tree_root[rx];
                    tree_root[rx] = v;
                    nj++;
                }
            }
        }
    }
    while (c < n_ckpt)
        ckpt_jlen[c++] = nj;
    return nj;
}

/* Move edge f down one support bin when its support is above k: swap it
 * with the first edge of its bin, which then starts one slot later. */
static void bin_down(i64 f, i64 k, i64 *sup, i64 *order, i64 *pos,
                     i64 *bin) {
    i64 s = sup[f], g;
    if (s <= k)
        return;
    g = order[bin[s]];
    order[pos[f]] = g;
    pos[g] = pos[f];
    order[bin[s]] = f;
    pos[f] = bin[s]++;
    sup[f]--;
}

/* repro.measures.ktruss's bin-sort truss peel (Wang & Cheng, PVLDB 2012)
 * over ascending CSR rows.  sup: triangle support per edge on entry, truss
 * number on return; order/pos: the edges sorted by support and each
 * edge's slot there; bin[s]: the first slot of support s; ends: edge
 * endpoints; slot_eid: the edge of each CSR slot.  Peeling (u, v) merges
 * the two rows; a common neighbour w closes a triangle unless (u, w) or
 * (v, w) is already peeled.  Order stays sorted past the current slot,
 * so an edge's support when the walk reaches it is its truss number. */
void repro_truss_peel(i64 m, const i64 *indptr, const i64 *indices,
                      const i64 *slot_eid, const i64 *ends, i64 *sup,
                      i64 *order, i64 *pos, i64 *bin) {
    i64 i;
    for (i = 0; i < m; i++) {
        i64 e = order[i], k = sup[e], u = ends[2 * e], v = ends[2 * e + 1];
        i64 a = indptr[u], a_end = indptr[u + 1];
        i64 b = indptr[v], b_end = indptr[v + 1];
        while (a < a_end && b < b_end) {
            if (indices[a] < indices[b]) {
                a++;
            } else if (indices[a] > indices[b]) {
                b++;
            } else {
                i64 f = slot_eid[a++], g = slot_eid[b++];
                if (pos[f] > i && pos[g] > i) {
                    bin_down(f, k, sup, order, pos, bin);
                    bin_down(g, k, sup, order, pos, bin);
                }
            }
        }
    }
}

/* repro.core.super_tree's Algorithm 2 over a forest of n items given by
 * parent pointers (a negative parent is a root; the caller checks that
 * none reaches n).  The chain heads, roots and items whose parent's
 * scalar is strictly lower, are numbered in the stack order of
 * ScalarTree.iter_topological: roots pushed ascending, then the
 * children of each popped item pushed ascending, popped from the top.
 * Each head's super node is a breadth-first walk over equal-valued
 * children, and its slice of members is the walk's queue.
 * child_off (n + 1), child and stack (n each): scratch for the
 * children table, ascending within each parent as _children_table has
 * them; stack is the fill cursor per parent before the walk.
 * node_of (n): each item's super node, -1 where no walk reached it.
 * Super node s holds members[offsets[s] .. offsets[s + 1]), has scalar
 * super_scalars[s] and parent super_parent[s]; every buffer has room
 * for n super nodes.  Returns the number k of super nodes; offsets[k]
 * is the number of items placed, below n when some item is reached by
 * no walk: it or an ancestor lies below its parent's scalar, or it
 * hangs off a cycle. */
i64 repro_super_tree(i64 n, const i64 *parent, const double *scalars,
                     i64 *child_off, i64 *child, i64 *stack,
                     i64 *node_of, i64 *members, i64 *offsets,
                     double *super_scalars, i64 *super_parent) {
    i64 i, c, top = 0, k = 0, placed = 0;
    for (i = 0; i <= n; i++)
        child_off[i] = 0;
    for (i = 0; i < n; i++)
        if (parent[i] >= 0)
            child_off[parent[i] + 1]++;
    for (i = 0; i < n; i++) {
        child_off[i + 1] += child_off[i];
        stack[i] = child_off[i];
        node_of[i] = -1;
    }
    for (i = 0; i < n; i++)
        if (parent[i] >= 0)
            child[stack[parent[i]]++] = i;
    for (i = 0; i < n; i++)
        if (parent[i] < 0)
            stack[top++] = i;
    /* Each item is placed at most once, so placed < n holds before
     * every placement; testing it keeps a wrong build of this source,
     * which the self-test must survive running, inside members. */
    while (top > 0 && placed < n) {
        i64 v = stack[--top], p = parent[v], r;
        for (c = child_off[v]; c < child_off[v + 1]; c++)
            stack[top++] = child[c];
        if (p >= 0 && !(scalars[p] < scalars[v]))
            continue;
        offsets[k] = placed;
        super_scalars[k] = scalars[v];
        super_parent[k] = p < 0 ? -1 : node_of[p];
        members[placed++] = v;
        for (r = offsets[k]; r < placed; r++) {
            i64 u = members[r];
            node_of[u] = k;
            for (c = child_off[u]; c < child_off[u + 1] && placed < n; c++)
                if (scalars[child[c]] == scalars[u])
                    members[placed++] = child[c];
        }
        k++;
    }
    offsets[k] = placed;
    return k;
}

/* repro.terrain.render's z-buffer.  The n_keep faces in keep are drawn
 * in order; every pixel of a face's clipped box [min_x, max_x) x
 * [min_y, max_y) is tested with the numpy pair pass's double arithmetic,
 * operation for operation, and an inside pixel takes the face when its
 * depth is strictly below zbuf's, so the earliest face wins a tie.
 * xy: (x, y) per vertex; depth: view depth per vertex; faces: corner
 * triples; zbuf (+inf) and owner (background id) are row-major images
 * width pixels wide, updated in place. */
void repro_zbuffer(i64 width, i64 n_keep, const i64 *keep,
                   const i64 *faces, const double *xy, const double *depth,
                   const i64 *min_x, const i64 *max_x,
                   const i64 *min_y, const i64 *max_y,
                   double *zbuf, i64 *owner) {
    i64 i, px, py;
    for (i = 0; i < n_keep; i++) {
        i64 f = keep[i];
        const i64 *c = faces + 3 * f;
        double x0 = xy[2 * c[0]], y0 = xy[2 * c[0] + 1];
        double dx1 = xy[2 * c[1]] - x0, dy1 = xy[2 * c[1] + 1] - y0;
        double dx2 = xy[2 * c[2]] - x0, dy2 = xy[2 * c[2] + 1] - y0;
        double area = dx1 * dy2 - dx2 * dy1;
        double z0 = depth[c[0]], z1 = depth[c[1]], z2 = depth[c[2]];
        for (py = min_y[f]; py < max_y[f]; py++) {
            double rel_y = ((double)py + 0.5) - y0;
            double *zrow = zbuf + py * width;
            i64 *orow = owner + py * width;
            for (px = min_x[f]; px < max_x[f]; px++) {
                double rel_x = ((double)px + 0.5) - x0;
                double w0 = (dx1 * rel_y - rel_x * dy1) / area;
                double w1 = (rel_x * dy2 - dx2 * rel_y) / area;
                /* Barycentrics: b1 = w1 (vertex 1), b2 = w0 (vertex 2). */
                double b0 = 1.0 - w0 - w1, z;
                if (!(b0 >= 0 && w0 >= 0 && w1 >= 0))
                    continue;
                z = b0 * z0 + w1 * z1 + w0 * z2;
                if (z < zrow[px]) {
                    zrow[px] = z;
                    orow[px] = f;
                }
            }
        }
    }
}
"""


# ----------------------------------------------------------------------
# Compile / cache / load
# ----------------------------------------------------------------------
class _Unavailable(Exception):
    """Internal: native tier cannot be used; carries the counter label."""

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(detail)
        self.reason = reason


_STATE = {
    "attempted": False,
    "lib": None,
    "so_path": None,
    "error": None,          # "reason: detail" string after a fallback
    "compile_seconds": None,
    "compiled": False,       # False when the cached .so was reused
}


def reset() -> None:
    """Forget the load attempt (tests re-drive the lifecycle with a
    scratch ``REPRO_NATIVE_CACHE`` / ``CC``)."""
    _STATE.update(
        attempted=False, lib=None, so_path=None, error=None,
        compile_seconds=None, compiled=False,
    )


def cache_dir() -> Path:
    """Where compiled shared objects live (``$REPRO_NATIVE_CACHE``
    override; default ``~/.cache/repro-native``)."""
    override = os.environ.get("REPRO_NATIVE_CACHE", "").strip()
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-native"


def _compiler() -> Optional[list]:
    """The compile command prefix, or None when no toolchain exists.

    ``$CC`` is honoured strictly when set (it may carry flags); without
    it the usual suspects are searched on PATH.
    """
    cc = os.environ.get("CC", "").strip()
    if cc:
        parts = shlex.split(cc)
        found = shutil.which(parts[0])
        if found is None and not Path(parts[0]).exists():
            return None
        return parts
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found is not None:
            return [found]
    return None


def _compiler_banner(cc: list) -> str:
    try:
        proc = subprocess.run(
            cc + ["--version"], stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, timeout=30,
        )
        return proc.stdout.decode(errors="replace").splitlines()[0]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        return "unknown"


def _digest(cc: list) -> str:
    h = hashlib.sha256()
    for part in (C_SOURCE, " ".join(cc), " ".join(CFLAGS),
                 _compiler_banner(cc), platform.platform(),
                 platform.machine()):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _configure(lib: ctypes.CDLL) -> ctypes.CDLL:
    p = ctypes.POINTER(ctypes.c_int64)
    i = ctypes.c_int64
    lib.repro_merge_scan.argtypes = [i, i, p, p, p, p, p, p]
    lib.repro_merge_scan.restype = None
    lib.repro_replay_scan.argtypes = [i] + [p] * 4 + [i] + [p] * 8
    lib.repro_replay_scan.restype = i
    lib.repro_truss_peel.argtypes = [i] + [p] * 8
    lib.repro_truss_peel.restype = None
    d = ctypes.POINTER(ctypes.c_double)
    lib.repro_zbuffer.argtypes = [i, i, p, p, d, d, p, p, p, p, d, p]
    lib.repro_zbuffer.restype = None
    lib.repro_super_tree.argtypes = [i, p, d] + [p] * 6 + [d, p]
    lib.repro_super_tree.restype = i
    return lib


#: The z-buffer self-test's 4x4 owners, row by row: a far triangle
#: (face 0) below the diagonal, a near one (face 1) on and above it,
#: and a copy of face 0 (face 2) that ties it exactly and must lose.
_ZBUFFER_OWNERS = [1, 1, 1, 1, 0, 1, 1, 1, 0, 0, 1, 1, 0, 3, 3, 1]

#: The super-tree self-test's forest, ``(parent, scalars)``, and its
#: answer ``(scalars, parent, members)``: root 5 is numbered first, root
#: 0's group is a two-level walk in breadth-first order, and items 2 and
#: 4 sit above their parents' scalars, so they head groups of their own.
_SUPER_TREE_CASE = ([-1, 0, 0, 2, 1, -1, 0, 1], [1, 1, 2, 2, 3, 0, 1, 1])
_SUPER_TREE_ANSWER = (
    [0.0, 1.0, 2.0, 3.0], [-1, -1, 1, 1], [[5], [0, 1, 6, 7], [2, 3], [4]],
)


def _self_test(lib: ctypes.CDLL) -> bool:
    """Known answers against a stale or corrupt cached .so: chain 0-1-2
    merge-scanned as 1, 2 gives parents [1, 2, -1]; K4 on 0..3 plus a
    pendant (3, 4) and a fin triangle 0-1-5 gives truss 2 on the clique,
    0 on the pendant and 1 on the fin, which takes (0, 1) down from 3;
    the z-buffer gives a pixel to the nearest face, to the earliest
    of two exactly tied ones, and to none outside every face; and the
    super tree of ``_SUPER_TREE_CASE`` is ``_SUPER_TREE_ANSWER``."""
    cur = np.array([1, 2], dtype=np.int64)
    prev = np.array([0, 1], dtype=np.int64)
    parent = np.empty(3, dtype=np.int64)
    scratch = [np.empty(3, dtype=np.int64) for _ in range(3)]
    lib.repro_merge_scan(
        3, 2, _ptr(cur), _ptr(prev), _ptr(parent),
        _ptr(scratch[0]), _ptr(scratch[1]), _ptr(scratch[2]),
    )
    # Edges by id: (0,1) (0,2) (0,3) (0,5) (1,2) (1,3) (1,5) (2,3) (3,4).
    truss = truss_peel(
        [0, 4, 8, 11, 15, 16, 18],
        [1, 2, 3, 5, 0, 2, 3, 5, 0, 1, 3, 0, 1, 2, 4, 3, 0, 1],
        [3, 2, 2, 1, 2, 2, 1, 2, 0], lib=lib,
    )
    expected = [2, 2, 2, 1, 2, 2, 1, 2, 0]
    corners = [(0, 0), (4, 0), (0, 4), (0, 0), (4, 0), (4, 4)]
    lo, hi = np.zeros(3, dtype=np.int64), np.full(3, 4, dtype=np.int64)
    owner = zbuffer(
        np.array(corners, dtype=np.float64), np.repeat([2.0, 1.0], 3),
        np.array([(0, 1, 2), (3, 4, 5), (0, 1, 2)]), (lo, hi, lo, hi),
        np.arange(3), 4, 4, lib=lib,
    )
    sup_scalars, sup_parent, members, _ = super_tree(
        *_SUPER_TREE_CASE, lib=lib
    )
    return (
        parent.tolist() == [1, 2, -1]
        and truss.tolist() == expected
        and owner.tolist() == _ZBUFFER_OWNERS
        and (sup_scalars.tolist(), sup_parent.tolist(),
             [m.tolist() for m in members]) == _SUPER_TREE_ANSWER
    )


def _load_impl() -> ctypes.CDLL:
    # Fault site `compile_fail`: a scheduled compile abort exercises the
    # soft-fallback path (warning + obs counter, vector-tier results).
    from ..resil import faults as resil_faults

    if resil_faults.active() and resil_faults.should_fire(
        "compile_fail"
    ) is not None:
        raise _Unavailable(
            "fault-injected", "scheduled compile failure (repro.resil)"
        )
    cc = _compiler()
    if cc is None:
        raise _Unavailable(
            "no-compiler",
            "no C compiler found ($CC unset, none of cc/gcc/clang on PATH)",
        )
    directory = cache_dir()
    so_path = directory / f"repro_native_{_digest(cc)}.so"
    if not so_path.exists():
        try:
            directory.mkdir(parents=True, exist_ok=True)
            c_path = directory / f"{so_path.stem}.c"
            c_path.write_text(C_SOURCE)
            tmp = directory / f"{so_path.stem}.{os.getpid()}.tmp.so"
            proc = subprocess.run(
                cc + [*CFLAGS, "-o", str(tmp), str(c_path)],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                timeout=120,
            )
            if proc.returncode != 0:
                tail = proc.stdout.decode(errors="replace").strip()
                raise _Unavailable(
                    "compile-failed",
                    f"{' '.join(cc)} exited {proc.returncode}: "
                    f"{tail[-500:] or '(no output)'}",
                )
            os.replace(tmp, so_path)
        except _Unavailable:
            raise
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise _Unavailable("compile-failed", f"{exc!r}")
        _STATE["compiled"] = True
    try:
        lib = _configure(ctypes.CDLL(str(so_path)))
        ok = _self_test(lib)
    except (OSError, AttributeError) as exc:
        ok = False
        detail = f"{exc!r}"
    else:
        detail = "self-test produced wrong answers"
    if not ok:
        try:
            so_path.unlink()
        except OSError:
            pass
        raise _Unavailable("load-failed", f"{so_path.name}: {detail}")
    _STATE["so_path"] = str(so_path)
    return lib


def load() -> Optional[ctypes.CDLL]:
    """The loaded kernel library, compiling on first call; None after a
    fallback (the attempt is made once and memoized either way)."""
    if _STATE["attempted"]:
        return _STATE["lib"]
    _STATE["attempted"] = True
    t0 = time.perf_counter()
    with obs_trace.span("accel.compile"):
        try:
            _STATE["lib"] = _load_impl()
            _AVAILABLE.set(1.0)
        except _Unavailable as exc:
            _STATE["error"] = f"{exc.reason}: {exc}"
            _FALLBACKS.inc(reason=exc.reason)
            _AVAILABLE.set(0.0)
            _LOG.warning(
                "native accel tier unavailable (%s); falling back to "
                "the vector tier — outputs are identical, only slower",
                _STATE["error"],
            )
    _STATE["compile_seconds"] = time.perf_counter() - t0
    _COMPILE_SECONDS.observe(_STATE["compile_seconds"])
    return _STATE["lib"]


def available() -> bool:
    """Whether the native kernels are usable (compiles on first call)."""
    return load() is not None


def info() -> dict:
    """Passive status for ``/stats`` — never triggers a compile."""
    return {
        "attempted": _STATE["attempted"],
        "available": (
            _STATE["lib"] is not None if _STATE["attempted"] else None
        ),
        "so_path": _STATE["so_path"],
        "compiled": _STATE["compiled"],
        "compile_seconds": _STATE["compile_seconds"],
        "error": _STATE["error"],
        "cache_dir": str(cache_dir()),
    }


# ----------------------------------------------------------------------
# ctypes wrappers (zero-copy over flat int64 arrays)
# ----------------------------------------------------------------------
def _ptr(arr: np.ndarray):
    return arr.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))


def _dptr(arr: np.ndarray):
    return arr.ctypes.data_as(ctypes.POINTER(ctypes.c_double))


def _as_i64(arr) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.int64)


def merge_scan(
    n_items: int, cur: np.ndarray, prev: np.ndarray
) -> Optional[np.ndarray]:
    """Native :func:`repro.accel.tree.merge_scan`; None when unavailable."""
    lib = load()
    if lib is None:
        return None
    cur = _as_i64(cur)
    prev = _as_i64(prev)
    parent = np.empty(n_items, dtype=np.int64)
    uf = np.empty(n_items, dtype=np.int64)
    size = np.empty(n_items, dtype=np.int64)
    tree_root = np.empty(n_items, dtype=np.int64)
    lib.repro_merge_scan(
        n_items, len(cur), _ptr(cur), _ptr(prev),
        _ptr(parent), _ptr(uf), _ptr(size), _ptr(tree_root),
    )
    return parent


def replay_scan(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    order: np.ndarray,
    pos: np.ndarray,
    ckpt_pos: np.ndarray,
) -> Optional[dict]:
    """Journalled Algorithm-1 replay for the streaming rebuild.

    Returns the full rollback-capable state as flat arrays (see the C
    comment for semantics), or None when the native tier is unavailable.
    """
    lib = load()
    if lib is None:
        return None
    indptr = _as_i64(indptr)
    indices = _as_i64(indices)
    order = _as_i64(order)
    pos = _as_i64(pos)
    ckpt_pos = _as_i64(ckpt_pos)
    parent = np.empty(n, dtype=np.int64)
    tree_root = np.empty(n, dtype=np.int64)
    uf_parent = np.empty(n, dtype=np.int64)
    uf_size = np.empty(n, dtype=np.int64)
    cap = max(n, 1)
    journal = np.empty(3 * cap, dtype=np.int64)
    history = np.empty(cap, dtype=np.int64)
    ckpt_jlen = np.empty(max(len(ckpt_pos), 1), dtype=np.int64)
    nj = lib.repro_replay_scan(
        n, _ptr(indptr), _ptr(indices), _ptr(order), _ptr(pos),
        len(ckpt_pos), _ptr(ckpt_pos), _ptr(ckpt_jlen),
        _ptr(parent), _ptr(tree_root), _ptr(uf_parent), _ptr(uf_size),
        _ptr(journal), _ptr(history),
    )
    return {
        "parent": parent,
        "tree_root": tree_root,
        "uf_parent": uf_parent,
        "uf_size": uf_size,
        "journal": journal[: 3 * nj].reshape(nj, 3),
        "history": history[:nj],
        "ckpt_jlen": ckpt_jlen[: len(ckpt_pos)],
        "n_unions": int(nj),
    }


def truss_peel(
    indptr: np.ndarray, indices: np.ndarray, support, lib=None
) -> Optional[np.ndarray]:
    """K-truss numbers per dense edge id (``CSRGraph.edge_array`` order)
    from the initial triangle ``support``; None when unavailable."""
    lib = load() if lib is None else lib
    if lib is None:
        return None
    indptr, indices = _as_i64(indptr), _as_i64(indices)
    sup = np.array(support, dtype=np.int64)
    src = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    upper = src < indices
    # Upper slots hold the edges in id order, lower slots in order of
    # their larger endpoint, which a stable sort by it reproduces.
    slot_eid = np.empty(len(indices), dtype=np.int64)
    slot_eid[upper] = np.arange(len(sup))
    slot_eid[~upper] = np.argsort(indices[upper], kind="stable")
    ends = _as_i64(np.column_stack([src[upper], indices[upper]]))
    order = _as_i64(np.argsort(sup, kind="stable"))
    pos = _as_i64(np.argsort(order))  # the inverse permutation
    levels = np.arange(sup.max(initial=0) + 1)
    bins = _as_i64(np.searchsorted(sup[order], levels))
    lib.repro_truss_peel(
        len(sup), _ptr(indptr), _ptr(indices), _ptr(slot_eid), _ptr(ends),
        _ptr(sup), _ptr(order), _ptr(pos), _ptr(bins),
    )
    return sup


def zbuffer(
    xy: np.ndarray,
    depth: np.ndarray,
    faces: np.ndarray,
    box,
    keep: np.ndarray,
    width: int,
    height: int,
    lib=None,
) -> Optional[np.ndarray]:
    """The face that owns each pixel of a ``width`` x ``height`` image,
    row-major, ``len(faces)`` where no kept face covers it; None when
    unavailable.

    ``xy`` and ``depth`` are the projected vertices, ``faces`` their
    corner triples, ``box`` the per-face pixel bounds ``(min_x, max_x,
    min_y, max_y)``, already clipped to the image, and ``keep`` the
    faces to draw, in drawing order.  Indices and bounds are checked
    here, since the kernel trusts them (``ValueError``)."""
    lib = load() if lib is None else lib
    if lib is None:
        return None
    xy = np.ascontiguousarray(xy, dtype=np.float64)
    depth = np.ascontiguousarray(depth, dtype=np.float64)
    faces, keep = _as_i64(faces), _as_i64(keep)
    box = tuple(_as_i64(b) for b in box)
    n_faces = len(faces)
    if (xy.shape != (len(depth), 2) or faces.shape != (n_faces, 3)
            or keep.ndim != 1 or len(box) != 4
            or any(b.shape != (n_faces,) for b in box)):
        raise ValueError("zbuffer: mismatched array shapes")
    if len(keep) and (keep.min() < 0 or keep.max() >= n_faces):
        raise ValueError("zbuffer: a kept face id is out of range")
    limits = (width, width, height, height)
    if n_faces and (
        faces.min() < 0 or faces.max() >= len(depth)
        or any(b.min() < 0 or b.max() > hi for b, hi in zip(box, limits))
    ):
        raise ValueError("zbuffer: a corner or a box is out of range")
    min_x, max_x, min_y, max_y = box
    zbuf = np.full(width * height, np.inf)
    owner = np.full(width * height, len(faces), dtype=np.int64)
    lib.repro_zbuffer(
        width, len(keep), _ptr(keep), _ptr(faces), _dptr(xy), _dptr(depth),
        _ptr(min_x), _ptr(max_x), _ptr(min_y), _ptr(max_y),
        _dptr(zbuf), _ptr(owner),
    )
    return owner


def super_tree(parent, scalars, lib=None) -> Optional[tuple]:
    """Algorithm 2 over the forest ``parent`` with item ``scalars``: the
    super nodes' ``(scalars, parent, members)`` and each item's super
    node, -1 for an item that no chain reaches (see the C comment);
    None when unavailable.  ``members`` is a list of slices of one
    array.  Shapes and parent ids are checked here, since the kernel
    trusts them (``ValueError``); a negative parent is a root."""
    lib = load() if lib is None else lib
    if lib is None:
        return None
    parent = _as_i64(parent)
    scalars = np.ascontiguousarray(scalars, dtype=np.float64)
    if parent.ndim != 1 or scalars.shape != parent.shape:
        raise ValueError("super_tree: mismatched array shapes")
    n = len(parent)
    if n and parent.max() >= n:
        raise ValueError("super_tree: a parent id is out of range")
    child_off = np.empty(n + 1, dtype=np.int64)
    offsets = np.empty(n + 1, dtype=np.int64)
    child, stack, node_of, members, sup_parent = (
        np.empty(n, dtype=np.int64) for _ in range(5)
    )
    sup_scalars = np.empty(n)
    k = lib.repro_super_tree(
        n, _ptr(parent), _dptr(scalars), _ptr(child_off), _ptr(child),
        _ptr(stack), _ptr(node_of), _ptr(members), _ptr(offsets),
        _dptr(sup_scalars), _ptr(sup_parent),
    )
    bounds = offsets[: k + 1].tolist()
    groups = [members[a:b] for a, b in zip(bounds, bounds[1:])]
    return sup_scalars[:k].copy(), sup_parent[:k].copy(), groups, node_of
