"""Peak traced memory of one call, for the tests' memory gates.

The module is not collected as tests; tests import it with
``from memory import traced_peak``.
"""

from __future__ import annotations

import tracemalloc


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak bytes that tracemalloc traced while it ran).

    Tracing starts with a zero peak just before the call and stops after it,
    also when the call raises; what was allocated before the call is not
    counted.
    """
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        value = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak
