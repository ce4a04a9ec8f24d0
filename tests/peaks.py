"""Peak memory of one call, measured with tracemalloc, which counts the same
bytes on every run where RSS does not."""

import tracemalloc


def peak_bytes(fn, *args) -> int:
    """The most bytes held at once during `fn(*args)`, beyond what was held
    before it.  One call runs first, so the tables it caches are not counted."""
    return _traced(fn, *args)[1]


def live_bytes(fn, *args) -> int:
    """The bytes still held once `fn(*args)` has returned, by its result and
    whatever else it keeps, beyond what was held before it.  One call runs
    first, as for `peak_bytes`."""
    return _traced(fn, *args)[0]


def _traced(fn, *args) -> tuple[int, int]:
    """The bytes held after a second call of `fn(*args)`, its result still
    referenced, and the most held during it, each beyond what was held before."""
    fn(*args)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)  # noqa: F841 -- held while the bytes are counted
        current, peak = tracemalloc.get_traced_memory()
        return current - before, peak - before
    finally:
        if not tracing:
            tracemalloc.stop()
