"""Seeded, splittable random streams.

A stream is a pure function of (seed, counter): draw i of stream s is
``mix64(seed + (counter + i + 1) * GOLDEN)``, the SplitMix64 output function
evaluated on a counter-based state.  This keeps every stream

* reproducible: same seed, same draws, on any platform;
* serializable: the full state is two 64-bit integers;
* splittable: child streams derive their seed from the parent seed and a
  label, so per-utterance noise is independent of data order.

Normal variates use the Box-Muller transform on 53-bit uniforms instead of a
rejection sampler, so the number of raw draws consumed per value is fixed and
the counter advances deterministically.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)

_U64 = np.uint64
_INV_2_53 = float(2.0**-53)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer; operates elementwise on uint64 arrays.

    All uint64 arithmetic here wraps mod 2^64 by design.
    """
    with np.errstate(over="ignore"):
        z = (z ^ (z >> _U64(30))) * _MIX1
        z = (z ^ (z >> _U64(27))) * _MIX2
        return z ^ (z >> _U64(31))


def _fnv1a(label: str) -> np.uint64:
    h = _FNV_OFFSET
    with np.errstate(over="ignore"):
        for b in label.encode("utf-8"):
            h = (h ^ _U64(b)) * _FNV_PRIME
    return h


class RandomStream:
    """Counter-based PRNG with named sub-streams.

    State is (seed, counter); both are plain ints so checkpointing the
    stream is trivial.
    """

    def __init__(self, seed: int, counter: int = 0):
        self._seed = _U64(seed & 0xFFFFFFFFFFFFFFFF)
        self._counter = int(counter)

    @property
    def state(self) -> tuple[int, int]:
        return (int(self._seed), self._counter)

    def split(self, label: str) -> "RandomStream":
        """Derive an independent child stream; does not advance this one."""
        with np.errstate(over="ignore"):
            child = _mix64(np.asarray((self._seed ^ _fnv1a(label)) + _GOLDEN))
        return RandomStream(int(child))

    def _raw(self, n: int) -> np.ndarray:
        # the counter wraps mod 2^64, as the rest of the arithmetic does
        idx = np.arange(1, n + 1, dtype=np.uint64) + _U64(self._counter)
        self._counter = (self._counter + n) % 2**64
        with np.errstate(over="ignore"):
            return _mix64(self._seed + idx * _GOLDEN)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1)."""
        return (self._raw(n) >> _U64(11)).astype(np.float64) * _INV_2_53

    def normal(self, shape) -> np.ndarray:
        """Standard normal array via Box-Muller; pairs are consumed whole."""
        shape = (shape,) if np.isscalar(shape) else tuple(shape)
        n = int(np.prod(shape)) if shape else 1
        pairs = (n + 1) // 2
        raw = self._raw(2 * pairs)
        # shift into (0, 1] so log never sees zero
        u1 = ((raw[:pairs] >> _U64(11)).astype(np.float64) + 1.0) * _INV_2_53
        u2 = (raw[pairs:] >> _U64(11)).astype(np.float64) * _INV_2_53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n].reshape(shape)

    def integers(self, low: int, high: int, n: int = 1) -> np.ndarray:
        """n ints uniform on [low, high); scaled 53-bit uniforms."""
        if high <= low:
            raise ContractError(f"empty integer range [{low}, {high})")
        u = self.uniform(n)
        return low + np.floor(u * (high - low)).astype(np.int64)
