"""Deterministic substream derivation and the one chunked trial map.

Every trial draws from its own generator keyed by a stateless hash of
(master seed, trial index), so results never depend on scheduling order or
worker count.  The mixing constants below are fixed; any implementation
using them reproduces the keys bit-for-bit.

Trial loops go through _map_chunks over _chunk_ranges: trials are split
into chunks of _TRIAL_CHUNK, a size fixed independently of the pool, each
chunk is one task, and the results come back in chunk order, so a
reduction over them is the same for any worker count.
"""

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_TRIAL_CHUNK = 64  # fixed so the split never depends on the worker count


def _mix64(x: int) -> int:
    x &= _MASK
    x ^= x >> 30
    x = (x * _MIX1) & _MASK
    x ^= x >> 27
    x = (x * _MIX2) & _MASK
    x ^= x >> 31
    return x


def seed_substream(master: int, trial: int) -> int:
    """64-bit substream key for (master seed, trial index).

    key = mix64(mix64(master) + GAMMA * (trial + 1)) with the splitmix64
    finalizer mix64 and increment GAMMA = 0x9E3779B97F4A7C15.
    """
    base = (_mix64(master & _MASK) + _GAMMA * ((trial & _MASK) + 1)) & _MASK
    return _mix64(base)


def substream_rng(master: int, trial: int) -> np.random.Generator:
    """Fresh PCG64 generator for one trial's draws."""
    return np.random.default_rng(seed_substream(master, trial))


def _chunk_ranges(trials: int):
    """[(t0, t1), ...] covering range(trials) in chunks of _TRIAL_CHUNK."""
    return [(t0, min(t0 + _TRIAL_CHUNK, trials)) for t0 in range(0, trials, _TRIAL_CHUNK)]


def _map_chunks(fn, chunk_args, workers: int):
    """[fn(a) for a in chunk_args], in order, on a pool of min(workers,
    chunks) processes when both exceed one (more would only sit idle)."""
    if workers > 1 and len(chunk_args) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(chunk_args))) as pool:
            return list(pool.map(fn, chunk_args))
    return [fn(a) for a in chunk_args]
