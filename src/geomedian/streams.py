"""Deterministic counter-based random streams.

Every random draw is keyed by ``(seed, namespace, *indices)``, so the stream
assigned to a unit of work (a bootstrap replicate, a synthetic sample, a Monte
Carlo replication) depends only on its key and never on execution order or
worker count.  Two entry points produce them:

* :func:`substream` returns a numpy Philox generator (Salmon et al. 2011,
  "Parallel random numbers: as easy as 1, 2, 3") keyed through
  ``numpy.random.SeedSequence`` spawn keys; synthetic samples (two streams
  per draw), block permutations and the harness use it.
* :func:`rademacher` draws the bootstrap's sign multipliers for a whole batch
  of replicates as the raw bits of the ``(seed, namespace)`` substream, each
  replicate at a fixed offset of that one counter-based stream.

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


def substream(seed: int, *path: int) -> "np.random.Generator":
    """Return an independent generator keyed by ``(seed, *path)``.

    The annotation is a string so that importing this module does not load
    ``numpy.random`` (and the ``secrets``/``hmac`` it imports); the first call
    does.

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


def rademacher(seed: int, namespace: int, first: int, count: int, n: int) -> np.ndarray:
    """Random signs for replicates ``first .. first + count - 1``, n per replicate.

    Returns a (count, n) float64 array of +1/-1, each with probability 1/2,
    read from the raw 64-bit words of ``substream(seed, namespace)``.  Each
    replicate owns ``blocks = ceil(words / 4)`` Philox blocks of four words,
    ``words = ceil(n / 64)``, so row b is words ``[4 b blocks, 4 b blocks +
    words)`` of that stream.  Sign i is bit i % 64 of word i // 64, and a set
    bit gives +1.  Row b therefore depends only on (seed, namespace, b) for a
    given n, not on ``first`` or ``count``.
    """
    words = -(-n // 64)
    blocks = -(-words // 4)
    bit_gen = substream(seed, namespace).bit_generator
    bit_gen.advance(first * blocks)
    raw = bit_gen.random_raw(count * 4 * blocks).reshape(count, 4 * blocks)[:, :words]
    raw = np.ascontiguousarray(raw, dtype="<u8")
    bits = np.unpackbits(raw.view(np.uint8), axis=1, count=n, bitorder="little")
    signs = np.multiply(bits, 2.0)
    signs -= 1.0  # in place: one (count, n) array, not two
    return signs
