"""Size limits for the exhaustive enumerations.

Everything in this package is verified by exhaustion over n! words or over
all tableaux with n boxes, so every enumeration entry point carries one
size cap, ``HARD_CEILING``.  It can be lowered per call (``limit=``), or
process-wide through the ``TABLEAUX_LIMIT_N`` environment variable, but
never raised.  Of the capped builds only word enumeration pays for the n!
words.  Tableaux (2620 at n = 9), cells and the two-column family (126)
grow box by box at their own cost, and the Duflo poset grows its cover
pairs on tableaux (22844 distinct pairs at n = 9, built in about 0.22 s).

``CACHE_BOUND`` caps every cache keyed by a tableau (chain vectors, profiles,
canonical words, their inversion masks); caches keyed by sizes are unbounded.
"""

import os

from .errors import LimitError

ENV_LIMIT = "TABLEAUX_LIMIT_N"

HARD_CEILING = 9

CACHE_BOUND = 256


def effective_limit(limit: int | None) -> int:
    """Resolve the size cap from the explicit argument, the environment, or
    the ceiling; neither can raise it past the ceiling."""
    if limit is None:
        env = os.environ.get(ENV_LIMIT)
        if env is None:
            return HARD_CEILING
        try:
            limit = int(env)
        except ValueError:
            raise LimitError(f"{ENV_LIMIT} must be an integer, got {env!r}") from None
        if limit < 0:
            raise LimitError(f"{ENV_LIMIT} must be a non-negative integer, got {env!r}")
    if limit < 0:
        raise LimitError(f"a size limit must be non-negative, got {limit}")
    return min(limit, HARD_CEILING)


def check_limit(n: int, what: str, limit: int | None) -> None:
    """Raise LimitError when ``n`` exceeds the resolved cap for ``what``."""
    cap = effective_limit(limit)
    if n > cap:
        raise LimitError(f"{what} at n={n} exceeds the limit {cap}")
    if n < 0:
        raise LimitError(f"{what} needs n >= 0, got {n}")
