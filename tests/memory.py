"""Peak memory of one call, shared by the tests that bound it."""

import tracemalloc


def traced_peak(call) -> int:
    """Peak bytes of the allocations tracemalloc sees while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
