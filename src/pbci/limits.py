"""Size caps for the exponential workloads.

Every answer of this package comes from an exhaustive enumeration, so each
exponential entry point refuses inputs above a size cap.  ``CAPS`` holds the whole
policy, one row per entry point: the name used in errors, the default cap
and the exception raised.  ``check_cap`` is the one check.  An explicit cap
wins (``validate`` passes its ``max_size``), then the environment variable
PBCI_MAX_SIZE, which overrides every default at once, then the row's
default.
"""

from __future__ import annotations

import os

from .errors import EnumerationCapExceeded, SearchCapExceeded, StructuralError

ENV_VAR = "PBCI_MAX_SIZE"

# name used in errors: (default cap, exception raised)
CAPS = {
    "universe": (64, StructuralError),                   # validate()
    "enumeration": (12, EnumerationCapExceeded),         # derivations: n^n maps
    "subset-enumeration": (16, EnumerationCapExceeded),  # deductive systems
    "search": (6, SearchCapExceeded),                    # model search
}


def env_cap() -> int | None:
    """PBCI_MAX_SIZE as an integer, or None when it is unset.

    Raises ValueError when it is set to something other than a positive
    integer.
    """
    env = os.environ.get(ENV_VAR)
    if env is None:
        return None
    try:
        cap = int(env)
    except ValueError:
        cap = None
    if cap is None or cap < 1:
        raise ValueError(f"{ENV_VAR} must be a positive integer, got {env!r}")
    return cap


def check_cap(n: int, what: str, cap: int | None = None) -> None:
    """Raise the exception of row ``what`` of CAPS when size n exceeds the
    cap: the explicit cap if given, else PBCI_MAX_SIZE, else the default."""
    default, error = CAPS[what]
    if cap is None:
        cap = env_cap() or default
    if n > cap:
        raise error(f"size {n} exceeds {what} cap {cap}; set {ENV_VAR} to opt in")
