"""Dense array containers, deterministic RNG and row blocks.

Matrices are plain 2-D float64 ndarrays and image/feature stacks are 4-D
float64 ndarrays (batch, height, width, channels). The helpers here
validate and coerce at module boundaries so the numerical code can assume
well-formed input.
"""

from dataclasses import dataclass

import numpy as np

_U64 = np.uint64
# floats per block of row_blocks (512 KiB, inside a 2 MiB L2 cache)
_BLOCK_FLOATS = 1 << 16


def row_blocks(n, row_floats, budget=None):
    """Consecutive slices over n rows of row_floats floats each, in order:
    each holds at most budget // row_floats rows and at least one, and the
    last stops at n. budget defaults to _BLOCK_FLOATS, read at call time.
    Every blocked loop of the package takes its rows from here."""
    budget = _BLOCK_FLOATS if budget is None else budget
    step = max(1, budget // max(row_floats, 1))
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def as_tensor4(t, name="tensor"):
    """Coerce to a 4-D float64 array (batch, height, width, channels)."""
    a = np.asarray(t, dtype=np.float64)
    if a.ndim != 4:
        raise ValueError(f"{name} must be 4-D, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class Rng:
    """Counter-based random source keyed by (seed, stream).

    Identical (seed, stream) pairs produce identical draw sequences on every
    platform, and distinct streams are independent without shared state, so
    parallel consumers can each own a stream. ``generator()`` returns a fresh
    generator positioned at the start of the stream; callers own the draw
    order from there.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        for field_name in ("seed", "stream"):
            v = getattr(self, field_name)
            # int() would draw 1.5, True and '1' as the stream of 1
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{field_name} must be an integer, got "
                                 f"{type(v).__name__} {v!r}")
            if not 0 <= v < 2**64:
                raise ValueError(f"{field_name} must be a 64-bit unsigned integer")

    def generator(self):
        key = np.array([self.seed, self.stream], dtype=_U64)
        return np.random.Generator(np.random.Philox(key=key))
