"""Peak memory of one call, measured with tracemalloc, which counts the same
bytes on every run where RSS does not."""

import tracemalloc


def peak_bytes(fn, *args) -> int:
    """The most bytes held at once during `fn(*args)`, beyond what was held
    before it.  One call runs first, so the tables it caches are not counted."""
    fn(*args)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
