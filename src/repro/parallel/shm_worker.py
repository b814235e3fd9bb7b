"""Worker-side MTTKRP slab execution (runs inside pool processes).

The parent never pickles arrays: a batch payload carries
:class:`~repro.parallel.shm.ShmArrayHandle` records for one CSF tree's
level arrays, the factor matrices, and the shared target buffer, plus a
list of ``(slab_index, node_ranges)`` descriptors.  This module attaches
the segments, rebuilds each slab as a :class:`~repro.tensor.csf.CSFTensor`
view — *exactly* the arrays :func:`repro.tensor.tiling._make_slab`
produces, byte for byte — and runs the **same** sweep functions the
serial executor runs inline (:func:`repro.kernels.mttkrp_csf._slab_upward`
/ ``_slab_downward``).  Same operands, same operation order, same dtypes
⇒ bit-identical node values; the slabs write fully-overwritten disjoint
ranges of the target, and the parent performs the one deterministic
scatter.  That is the whole determinism argument, and it is what lets
the differential harness hold the serial and process executors to
*bitwise* family anchors.

Everything static is cached per tree (keyed by the tree group's segment
name, which is unique per arena, plus the tree's shape and mode order):
attached arrays, rebased slab trees, per-slab scratch buffers, and
expansion-index maps — so steady-state calls allocate nothing, mirroring the parent-side
:class:`~repro.kernels.workspace.KernelWorkspace` guarantee.  Caches are
pruned once they span more than :data:`_MAX_CACHED_TREES` trees (long
sessions churning many engines).

Batches are idempotent by design: a re-executed batch rewrites the same
bytes to the same disjoint ranges, so the pool's dead-worker resubmit
path needs no coordination.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..tensor.csf import CSFTensor
from ..tensor.tiling import CSFSlab
from ..types import INDEX_DTYPE, VALUE_DTYPE
from . import shm

#: Task name the parent submits (see ``procpool.resolve_task_fn``).
TASK_NAME = "repro.parallel.shm_worker:run_slab_batch"

_MAX_CACHED_TREES = 32


class _Scratch:
    """Single-process stand-in for :class:`KernelWorkspace`.

    Implements the two methods the slab sweeps call — ``buf`` (keyed
    reusable arrays) and ``expand_indices`` (the cached gather map
    equivalent to ``np.repeat``) — without locks: each worker is
    single-threaded.
    """

    def __init__(self) -> None:
        self._buffers: dict[object, np.ndarray] = {}
        self._expand: dict[tuple[int, int], np.ndarray] = {}
        self._slabs: dict[int, CSFSlab] = {}

    def register_slab(self, slab: CSFSlab) -> None:
        self._slabs[slab.index] = slab

    def buf(self, key: object, shape: tuple[int, ...],
            dtype: np.dtype = VALUE_DTYPE) -> np.ndarray:
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
        return buf

    def expand_indices(self, slab_index: int, level: int) -> np.ndarray:
        key = (slab_index, level)
        idx = self._expand.get(key)
        if idx is None:
            counts = np.diff(self._slabs[slab_index].tree.fptr[level])
            idx = np.repeat(
                np.arange(counts.shape[0], dtype=INDEX_DTYPE), counts)
            self._expand[key] = idx
        return idx


class _TreeContext:
    """Attached arrays + rebuilt slabs + scratch for one shared tree."""

    def __init__(self, payload: dict) -> None:
        self.shape = tuple(payload["shape"])
        self.mode_order = tuple(payload["mode_order"])
        self.nmodes = len(self.shape)
        tree = payload["tree"]
        self.fids = [shm.attach(tree[f"fids{l}"])
                     for l in range(self.nmodes)]
        self.fptr = [shm.attach(tree[f"fptr{l}"])
                     for l in range(self.nmodes - 1)]
        self.vals = shm.attach(tree["vals"])
        self.scratch = _Scratch()
        self._slabs: dict[int, CSFSlab] = {}

    def slab(self, index: int,
             node_ranges: tuple[tuple[int, int], ...]) -> CSFSlab:
        cached = self._slabs.get(index)
        if cached is not None:
            return cached
        # Mirror tiling._make_slab: fids/vals are zero-copy views, fptr
        # arrays are rebased copies (made once — the pattern is static).
        fids = [self.fids[l][node_ranges[l][0]:node_ranges[l][1]]
                for l in range(self.nmodes)]
        fptr = [self.fptr[l][node_ranges[l][0]:node_ranges[l][1] + 1]
                - self.fptr[l][node_ranges[l][0]]
                for l in range(self.nmodes - 1)]
        vals = self.vals[node_ranges[-1][0]:node_ranges[-1][1]]
        tree = CSFTensor(self.shape, self.mode_order, fids, fptr, vals)
        slab = CSFSlab(index, tree, tuple(tuple(r) for r in node_ranges))
        self._slabs[index] = slab
        self.scratch.register_slab(slab)
        return slab


#: Per-tree context cache, keyed by the tree group's segment name, shape
#: and mode order.
_TREES: dict[tuple, _TreeContext] = {}


def _tree_context(payload: dict) -> _TreeContext:
    # The segment alone does not identify a tree: the parent's arena
    # shares one segment between byte-identical groups, and two trees of
    # one tensor rooted at different one-wide modes have identical level
    # arrays but different mode orders (so different factors per level).
    token = (payload["tree"]["vals"].segment, tuple(payload["shape"]),
             tuple(payload["mode_order"]))
    ctx = _TREES.get(token)
    if ctx is None:
        if len(_TREES) >= _MAX_CACHED_TREES:
            _TREES.clear()
            shm.detach_all()
        ctx = _TreeContext(payload)
        _TREES[token] = ctx
    return ctx


def run_slab_batch(payload: dict) -> dict:
    """Execute one worker's share of a tiled MTTKRP call.

    Payload fields: ``kind`` (``root`` | ``leaf`` | ``internal``),
    ``level`` (target CSF level), ``rank``, ``shape``, ``mode_order``,
    ``tree`` (name → handle), ``factors`` (per-mode handles), ``target``
    (output-matrix handle for ``root``, per-node product buffer for
    ``leaf``/``internal``), ``slabs`` (``(index, node_ranges)`` list).

    Returns per-batch stats the parent merges into the call's
    observability record.
    """
    # Imported here, not at module top: the parent imports this module's
    # TASK_NAME without paying for the kernel stack; workers import the
    # kernels exactly once, on their first batch.
    from ..kernels.mttkrp_csf import _slab_downward, _slab_upward

    tick = time.perf_counter()
    ctx = _tree_context(payload)
    kind = payload["kind"]
    level = int(payload["level"])
    rank = int(payload["rank"])
    factors = [shm.attach(h) for h in payload["factors"]]
    target = shm.attach(payload["target"])
    scratch = ctx.scratch

    nnz = 0
    for index, node_ranges in payload["slabs"]:
        slab = ctx.slab(index, node_ranges)
        nnz += slab.nnz
        if kind == "root":
            rows = _slab_upward(slab, factors, 0, scratch, rank)
            target[slab.tree.fids[0]] = rows
        elif kind == "leaf":
            rows = _slab_downward(slab, factors, level, scratch, rank)
            lo, hi = slab.leaf_range
            np.multiply(rows, slab.tree.vals[:, None], out=target[lo:hi])
        elif kind == "internal":
            upward = _slab_upward(slab, factors, level, scratch, rank)
            downward = _slab_downward(slab, factors, level, scratch, rank)
            lo, hi = slab.node_ranges[level]
            np.multiply(upward, downward, out=target[lo:hi])
        else:  # pragma: no cover - parent never sends other kinds
            raise ValueError(f"unknown slab kind {kind!r}")

    return {
        "pid": os.getpid(),
        "slabs": len(payload["slabs"]),
        "nnz": nnz,
        "seconds": time.perf_counter() - tick,
    }
