"""In-memory span recorder and the self-time arithmetic over its spans.

A span is one call into a wrapped function: (id, parent id, name, thread
ident, start, end, value). Times come from ``time.monotonic``, which is
CLOCK_MONOTONIC on Linux and therefore comparable with timestamps taken in
the benchmark's parent process. ``value`` is one number attached to the call
(a computed flop or byte count, a local-epoch count, a failure flag).

Parents are tracked per thread. A span opened on a worker thread whose own
stack is empty is parented to the innermost span open on the thread that
created the recorder, which for the federated thread pool is the
``run_rounds`` call that submitted the work.
"""

import functools
import itertools
import threading
import time

ID, PARENT, NAME, THREAD, START, END, VALUE = range(7)


class Recorder:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._counters = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counter(self):
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = {}
            self._counters.append(counter)
        return counter

    def count(self, name, amount=1):
        """Add to a per-thread counter; per-thread so no update is lost."""
        counter = self._counter()
        counter[name] = counter.get(name, 0) + amount

    def counts(self):
        total = {}
        for counter in list(self._counters):
            for name, amount in counter.items():
                total[name] = total.get(name, 0) + amount
        return total

    def call(self, name, fn, args, kwargs, value=None):
        """Run ``fn`` inside a span; ``value(args, kwargs, result)`` -> number."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main and stack is not main else 0
        span_id = next(self._ids)
        stack.append(span_id)
        returned = False
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
            returned = True
        finally:
            end = time.monotonic()
            stack.pop()
            number = value(args, kwargs, result) if returned and value else 0
            self.spans.append(
                (span_id, parent, name, threading.get_ident(), start, end, number)
            )
        return result

    def wrap(self, fn, name, value=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, value)

        return wrapper

    def wrap_count(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map span id -> self time: its duration minus the part of its interval
    that its child spans cover (children on other threads may overlap, so the
    union is subtracted, not the sum)."""
    by_id = {s[ID]: s for s in spans}
    children = {}
    for s in spans:
        if s[PARENT] in by_id:
            children.setdefault(s[PARENT], []).append(s)
    out = {}
    for s in spans:
        start, end = s[START], s[END]
        clipped = [
            (max(c[START], start), min(c[END], end))
            for c in children.get(s[ID], ())
            if c[END] > start and c[START] < end
        ]
        out[s[ID]] = (end - start) - _covered(clipped)
    return out


def totals(spans):
    """Per span name: (summed self time, call count, summed value)."""
    own = self_times(spans)
    result = {}
    for s in spans:
        self_s, calls, value = result.get(s[NAME], (0.0, 0, 0))
        result[s[NAME]] = (self_s + own[s[ID]], calls + 1, value + s[VALUE])
    return result


def has_descendant(spans, root, name):
    """True if a span named ``name`` lies below span ``root`` in the tree."""
    by_id = {s[ID]: s for s in spans}
    for s in spans:
        if s[NAME] != name:
            continue
        parent = s[PARENT]
        while parent in by_id:
            if parent == root[ID]:
                return True
            parent = by_id[parent][PARENT]
    return False
