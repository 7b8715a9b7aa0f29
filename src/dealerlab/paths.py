"""Reproducible path generation and discrete stochastic integrals.

Randomness is counter-based: every (seed, path index, stream) triple maps
to its own Philox substream, so a path's draws never depend on how many
other paths are generated, in what order, or on how work is split across
workers.  Streams separate independent processes within one scenario
(noise demand vs. client targets).  A substream is a sequence: drawing its
normals in consecutive pieces gives the same numbers as one draw, so a
caller holding the generators of its paths (``path_streams``) may take
their normals a time slice at a time (``standard_normal_block``).

Philox releases the GIL while it fills, so ``standard_normal_block``
splits one block's streams over the process's CPUs, in tiles.  Each
stream is drawn whole by one thread, so the numbers do not depend on the
thread count, and every thread has joined before the call returns.
"""

from __future__ import annotations

import numbers
import os
import threading

import numpy as np

from .kernel import Horizon
from .processes import DemandProcess


def require_key_word(name: str, value) -> None:
    """Refuse a seed or path index that is not an integer in [0, 2**64), a Philox key word."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not 0 <= value < 2**64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value!r}")


def substream(seed: int, path_index: int, stream: int = 0) -> np.random.Generator:
    """Generator for one (seed, path, stream) cell of the Philox counter space."""
    require_key_word("seed", seed)
    require_key_word("path index", path_index)
    key = np.array([np.uint64(seed), np.uint64(path_index)], dtype=np.uint64)
    counter = np.array([0, 0, np.uint64(stream), 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def path_streams(seed: int, first_path: int, n_paths: int) -> list[np.random.Generator]:
    """Stream-0 generators of paths ``first_path`` .. ``first_path + n_paths - 1``."""
    return [substream(seed, first_path + i) for i in range(n_paths)]


TILE_PATHS = 64  # streams per tile of a fill: a tile's copy into ``out`` stays in cache


def _cpus() -> int:
    """CPUs this process may run on: the most threads one fill uses."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def standard_normal_block(streams, n_steps: int, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the next ``n_steps`` unit normals of each stream and return it.

    ``out`` may be any (len(streams), n_steps) float view: a path-major
    array, or the transpose of a step-major buffer.  Row ``i`` is drawn from
    ``streams[i]`` alone and advances it, so neither the block decomposition
    over paths nor a split into consecutive time slices has any effect on
    an individual path's numbers.  The streams are dealt, ``ceil(TILE_PATHS
    / k)`` at a time, over k = min(CPUs, tiles of ``TILE_PATHS``) threads:
    the calling thread and k - 1 helpers, each drawing its streams' rows
    into its own buffer and copying them into ``out``.  The k buffers hold
    one tile in all, and the first exception a helper raises is raised here
    once all have joined.
    """
    n = len(streams)
    if out.shape != (n, n_steps):
        raise ValueError(f"out must have shape {(n, n_steps)}, got {out.shape}")
    k = max(1, min(_cpus(), -(-n // TILE_PATHS)))
    piece = -(-TILE_PATHS // k)
    buffers = np.empty((k, piece, n_steps))
    errors = []

    def fill(t: int) -> None:
        for lo in range(t * piece, n, k * piece):
            rows = buffers[t, : min(piece, n - lo)]
            for row, stream in zip(rows, streams[lo : lo + piece]):
                stream.standard_normal(out=row)
            out[lo : lo + len(rows)] = rows

    def helper(t: int) -> None:
        try:
            fill(t)
        except BaseException as exc:  # raised on the calling thread after the join
            errors.append(exc)

    helpers = [threading.Thread(target=helper, args=(t,)) for t in range(1, k)]
    for thread in helpers:
        thread.start()
    try:
        fill(0)
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]
    return out


def realize(
    process: DemandProcess,
    horizon: Horizon,
    seed: int | None = None,
    path_index: int = 0,
    stream: int = 0,
    z: np.ndarray | None = None,
) -> tuple:
    """Realize a demand process on the grid as its kind's state, ``(x,)`` or ``(x, rate)``.

    Each part holds one entry per grid node on its last axis.  Deterministic
    kinds need no randomness.  Stochastic kinds run their per-step advance
    on unit normals ``z`` (shape (..., n_steps)); when ``z`` is omitted they
    are drawn from the (seed, path_index, stream) substream.
    """
    if process.deterministic:
        return process.path(horizon.grid)
    if z is None:
        if seed is None:
            raise ValueError(f"{type(process).__name__} needs a seed or explicit normals")
        z = substream(seed, path_index, stream).standard_normal(horizon.n_steps)
    advance = process.stepper(horizon.dt)
    states = [process.start(z.shape[:-1])]
    for i in range(horizon.n_steps):
        states.append(advance(states[-1], i, z[..., i]))
    return tuple(np.stack(part, axis=-1) for part in zip(*states))


def integrate_against(integrand: np.ndarray, integrator: np.ndarray) -> np.ndarray:
    """Ito (left-endpoint) sum: sum_i H_i (X_{i+1} - X_i) along the last axis."""
    if integrand.shape[-1] != integrator.shape[-1]:
        raise ValueError("integrand and integrator must share one grid")
    return np.sum(integrand[..., :-1] * np.diff(integrator, axis=-1), axis=-1)
