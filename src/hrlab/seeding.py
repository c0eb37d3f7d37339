"""Deterministic RNG stream derivation.

Every stochastic routine in the package takes an explicit seed and derives
child streams as a pure function of (master entropy, index path).  The same
lineage therefore yields bit-identical draws no matter how work is chunked
across workers.

``SeedLineage.children`` hashes a block of child streams in one numpy pass of
``SeedSequence``'s hash.  Each of their generators starts in the same state and
draws bit-identically to ``child(k).generator()``, but its seed cannot spawn.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, _count, _seq

_M32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants (pool size 4)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words32(n):
    """The little-endian uint32 words of an int >= 0, as SeedSequence splits it."""
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _mix(x, y):
    r = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return r ^ r >> 16


def _pcg64_words(entropy, prefix, last):
    """PCG64's four uint64 seed words of ``SeedSequence(entropy,
    spawn_key=prefix + (k,))`` for each k of the uint32 array ``last``: (len, 4).

    The shared words are plain ints and only the last spawn-key word is a
    vector.  It always enters the pool after the first four words, since a
    spawn key pads the run entropy to four words."""
    run = _words32(entropy)
    data = run + [0] * (4 - len(run)) + [w for k in prefix for w in _words32(k)] + [last]
    hc = _INIT_A

    def hashmix(v):
        nonlocal hc
        v = v ^ hc
        hc = hc * _MULT_A & _M32
        v = v * hc & _M32
        return v ^ v >> 16

    pool = [hashmix(w) for w in data[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in data[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(w))
    # generate_state(4, np.uint64): eight uint32 words read cyclically from the pool
    hc, state = _INIT_B, []
    for i in range(8):
        v = pool[i % 4] ^ hc
        hc = hc * _MULT_B & _M32
        v = v * hc & _M32
        state.append(v ^ v >> 16)
    return np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Precomputed seed words, handed to PCG64 in place of a SeedSequence.

    They are PCG64's four uint64 words and nothing else: any other request
    raises, and so does spawning."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed seed words are PCG64's four uint64 words")
        return self.words


@dataclass(frozen=True)
class SeedLineage:
    """A master seed together with the spawn-key path of a child stream.

    ``words`` are the stream's PCG64 seed words when ``children`` computed
    them; they are a cache, not part of the lineage's identity."""

    entropy: int
    key: tuple[int, ...] = ()
    words: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def child(self, index: int) -> "SeedLineage":
        return SeedLineage(self.entropy, self.key + (int(index),))

    def children(self, keys) -> list["SeedLineage"]:
        """``[self.child(k) for k in keys]``, with the seed words of the block
        hashed in one pass.  A block with a key outside [0, 2^32), or a lineage
        SeedSequence would refuse, takes ``child(k)`` alone."""
        lineages = [self.child(k) for k in keys]
        keys = [c.key[-1] for c in lineages]
        if not keys or min((self.entropy, *self.key, *keys)) < 0 or max(keys) > _M32:
            return lineages
        words = _pcg64_words(self.entropy, self.key, np.array(keys, dtype=np.uint32))
        for lineage, w in zip(lineages, words):
            object.__setattr__(lineage, "words", w)
        return lineages

    def sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.entropy, spawn_key=self.key)

    def generator(self) -> np.random.Generator:
        seed = self.sequence() if self.words is None else _SeedWords(self.words)
        return np.random.Generator(np.random.PCG64(seed))


def as_lineage(seed) -> SeedLineage:
    """Coerce an int >= 0 or SeedLineage into a SeedLineage, its key a tuple.
    A lineage's entropy and key are checked here, once a public call, and not
    in ``child``, which runs once a row: each must be an integer, as numpy's
    SeedSequence takes it (0.5 and -0.0 are not)."""
    if isinstance(seed, SeedLineage):
        key = _seq(seed.key, "a seed lineage's key")
        if not all(isinstance(v, (int, np.integer)) and v >= 0 for v in (seed.entropy, *key)):
            raise DomainError(f"a seed lineage's entropy and key must be >= 0 integers, got {seed}")
        return seed if isinstance(seed.key, tuple) else SeedLineage(seed.entropy, key)
    return SeedLineage(_count(seed, "seed", 0))
