"""In-memory span tracer for the credlab benchmark.

The tracer replaces public functions of the credlab modules with wrappers
that record one span per call: name, start, end and the index of the
enclosing span.  Every wrapper is installed on the attribute its callers
actually look up (the module attribute and every name imported into another
module), so a call cannot bypass the tracer through an imported alias.
``restore`` puts the original functions back.

Hooks that derive counts from a call's arguments or result run outside the
traced function and record their own ``trace.hooks`` span, so the time they
take is reported as tracing overhead instead of being charged to the layer
that called the traced function.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import inspect
import json
import time


class Tracer:
    def __init__(self):
        self.spans = []            # (name, start, end, parent index or -1)
        self._stack = []
        self._patches = []
        self.calls = collections.Counter()
        self.counts = collections.Counter()
        self._distance_vectors = set()

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, parent))
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent)
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = self._open(name)
        self.calls[name] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _run_hook(self, hook, signature, args, kwargs, result):
        idx = self._open("trace.hooks")
        try:
            hook(self, signature.bind(*args, **kwargs).arguments, result)
        finally:
            self._close(idx)

    # -- patching -----------------------------------------------------------

    def wrap(self, owners, attr, name, hook=None, span=True):
        """Replace ``attr`` on every object in ``owners`` with one traced
        wrapper of the original.  ``span=False`` counts calls and runs the
        hook without opening a span, leaving the time with the caller.
        ``hook(tracer, arguments, result)`` receives the bound arguments."""
        original = getattr(owners[0], attr)
        signature = inspect.signature(original)
        for owner in owners[1:]:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not {name}")

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if span:
                result = self.call(name, original, *args, **kwargs)
            else:
                self.calls[name] += 1
                result = original(*args, **kwargs)
            if hook is not None:
                self._run_hook(hook, signature, args, kwargs, result)
            return result

        for owner in owners:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counters used by hooks --------------------------------------------

    def record_distance_pass(self, distances):
        """One norm evaluation over a draw matrix; identical distance
        vectors come from the same (draw matrix, center, norm) triple."""
        self.counts["distance_passes"] += 1
        digest = hashlib.sha1(distances.tobytes()).digest()
        if digest not in self._distance_vectors:
            self._distance_vectors.add(digest)
            self.counts["distinct_distance_vectors"] += 1

    # -- summaries ------------------------------------------------------------

    def self_times(self):
        """Per-name sum of span duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = collections.Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
