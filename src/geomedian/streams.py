"""Deterministic counter-based random streams.

Every random draw is keyed by ``(seed, namespace, *indices)``, so the stream
assigned to a unit of work (a bootstrap replicate, a synthetic sample, a Monte
Carlo replication) depends only on its key and never on execution order or
worker count.  Two entry points produce them:

* :func:`substream` returns a Philox generator keyed through
  ``numpy.random.SeedSequence`` spawn keys; synthetic samples (two streams
  per draw), block permutations and the harness use it.
* :func:`rademacher` draws the bootstrap's sign multipliers for a whole batch
  of replicates in one vectorised Philox4x64-10 evaluation (Salmon et al.
  2011, "Parallel random numbers: as easy as 1, 2, 3"), keyed once by
  ``(seed, namespace)`` with the replicate index in the counter.

Namespaces keep consumers that share one user-facing seed on independent
streams: a sample generated with seed ``s`` and a bootstrap run with the same
``s`` never touch the same generator state.
"""

import numpy as np

# Stream namespaces.  One per consumer of a user-facing seed.
NS_DATA = 0          # synthetic samples: coordinates and Student-t mixing
NS_BOOT_MEDIAN = 1   # multiplier bootstrap replicates, spatial-median target
NS_BOOT_MEAN = 2     # multiplier bootstrap replicates, mean target
NS_BLOCKS = 3        # block partitioning for median-of-means
NS_HARNESS = 4       # per-replication seed derivation in the simulation harness

# Philox4x64 round multipliers and Weyl key increments (Random123).
_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_ROUNDS = 10
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return an independent generator keyed by ``(seed, *path)``.

    Identical arguments always yield an identical stream, on every platform
    and regardless of how many other substreams are in use.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in path))
    return np.random.Generator(np.random.Philox(ss))


def child_seed(seed: int, *path: int) -> int:
    """Derive an integer seed keyed by ``(seed, *path)``.

    Used where a component takes a seed of its own (e.g. one seed per
    Monte Carlo replication) and will namespace its substreams internally.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products m * x, elementwise.

    Built from 32-bit half products, each of which fits in a uint64.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _MASK32, x >> _SHIFT32
    ll = m_lo * x_lo
    lh = m_lo * x_hi
    hl = m_hi * x_lo
    mid = (ll >> _SHIFT32) + (lh & _MASK32) + (hl & _MASK32)
    hi = m_hi * x_hi + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
    lo = (mid << _SHIFT32) | (ll & _MASK32)
    return hi, lo


def _philox4x64(c0, c1, c2, c3, key: tuple[int, int]) -> np.ndarray:
    """Philox4x64-10 bijection of the counters (c0, c1, c2, c3) under ``key``.

    The counters are uint64 arrays of one shape; the result stacks the four
    output words on a new last axis.
    """
    k0, k1 = key
    for r in range(_ROUNDS):
        if r:
            # key schedule in Python integers: uint64 scalars warn on wraparound
            k0, k1 = (k0 + _W0) & 0xFFFFFFFFFFFFFFFF, (k1 + _W1) & 0xFFFFFFFFFFFFFFFF
        hi0, lo0 = _mulhilo(_M0, c0)
        hi1, lo1 = _mulhilo(_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
    return np.stack([c0, c1, c2, c3], axis=-1)


def rademacher(seed: int, namespace: int, first: int, count: int, n: int) -> np.ndarray:
    """Random signs for replicates ``first .. first + count - 1``, n per replicate.

    Returns a (count, n) float64 array of +1/-1, each with probability 1/2.
    The key is ``SeedSequence(seed, spawn_key=(namespace,))``; replicate b
    reads the stream of ``np.random.Philox(key=key, counter=[0, b, 0, 0])``,
    whose block j is the bijection at counter (j + 1, b, 0, 0).  Sign i is bit
    i % 64 of 64-bit word i // 64, and a set bit gives +1.  Row b therefore
    depends only on (seed, namespace, b), not on ``first`` or ``count``.
    """
    state = np.random.SeedSequence(int(seed), spawn_key=(int(namespace),)).generate_state(2, np.uint64)
    words = -(-n // 64)
    blocks = -(-words // 4)
    shape = (count, blocks)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), shape)
    c1 = np.broadcast_to(np.arange(first, first + count, dtype=np.uint64)[:, None], shape)
    zero = np.zeros(shape, dtype=np.uint64)
    out = _philox4x64(c0, c1, zero, zero, (int(state[0]), int(state[1])))
    raw = np.ascontiguousarray(out.reshape(count, 4 * blocks)[:, :words], dtype="<u8")
    bits = np.unpackbits(raw.view(np.uint8), axis=1, count=n, bitorder="little")
    return bits * 2.0 - 1.0
