"""Reproducibility discipline: one ``REPRO_SEED`` feeds every RNG.

Every stochastic component in the repository — the fuzz suite's value
tensors, the example scripts, the serving load generators — derives its
``numpy.random.Generator`` from :func:`seeded_rng`. The generator is
seeded by the process-wide ``REPRO_SEED`` knob (default 12345, see
:mod:`repro.runtime.knobs`) combined with a stable hash of
caller-supplied stream labels:

* distinct labels give statistically independent streams, and
* identical ``(REPRO_SEED, labels)`` pairs give identical draws in any
  process — which is what keeps ``--jobs N`` sweeps byte-identical to
  their serial runs.

Labels may be any mix of strings, ints, floats and tuples; they are
hashed structurally (sha256 over the repr), never with Python's
per-process-randomized ``hash()``.
"""

from __future__ import annotations

import hashlib
import numbers
from typing import TYPE_CHECKING

from . import knobs

if TYPE_CHECKING:
    import numpy as np

_MASK64 = (1 << 64) - 1


def _entropy(stream) -> int:
    """A stable non-negative 64-bit word for one stream label."""
    # numpy registers its integer scalars as numbers.Integral.
    if isinstance(stream, numbers.Integral):
        return int(stream) & _MASK64
    digest = hashlib.sha256(repr(stream).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def seeded_rng(*streams) -> np.random.Generator:
    """A Generator derived from ``REPRO_SEED`` plus the stream labels."""
    import numpy as np

    seed = knobs.get("REPRO_SEED")
    entropy = [_entropy(s) for s in (seed,) + streams]
    return np.random.default_rng(np.random.SeedSequence(entropy))
