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
# the two lanes' multipliers, split into 32-bit halves, one lane per leading row
_M_LO = np.array([_M0 & 0xFFFFFFFF, _M1 & 0xFFFFFFFF], dtype=np.uint64)[:, None, None]
_M_HI = np.array([_M0 >> 32, _M1 >> 32], dtype=np.uint64)[:, None, None]


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


def _philox4x64(c0, c1, c2, c3, key: tuple[int, int]) -> np.ndarray:
    """Philox4x64-10 bijection of the counters (c0, c1, c2, c3) under ``key``.

    The counters are uint64 arrays of one shape; the result stacks the four
    output words on a new last axis.  Both multiply lanes of a round run on
    one stacked array: ``x`` holds (c0, c2), the words multiplied by (M0, M1),
    and ``y`` holds (c1, c3).  Each 64x64 -> 128-bit product is built from
    32-bit half products, each of which fits in a uint64.
    """
    # key schedule in Python integers: uint64 scalars warn on wraparound
    schedule, (k0, k1) = [], key
    for _ in range(_ROUNDS):
        schedule.append((k0, k1))
        k0, k1 = (k0 + _W0) & 0xFFFFFFFFFFFFFFFF, (k1 + _W1) & 0xFFFFFFFFFFFFFFFF
    round_keys = np.array(schedule, dtype=np.uint64)[:, :, None, None]
    x = np.stack(np.broadcast_arrays(c0, c2))
    y = np.stack(np.broadcast_arrays(c1, c3))
    for r in range(_ROUNDS):
        x_lo, x_hi = x & _MASK32, x >> _SHIFT32
        ll = _M_LO * x_lo
        lh = _M_LO * x_hi
        hl = _M_HI * x_lo
        mid = (ll >> _SHIFT32) + (lh & _MASK32) + (hl & _MASK32)
        hi = _M_HI * x_hi + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
        lo = (mid << _SHIFT32) | (ll & _MASK32)
        x, y = hi[::-1] ^ y ^ round_keys[r], lo[::-1]
    return np.stack([x[0], y[0], x[1], y[1]], axis=-1)


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
