"""Test-suite configuration.

Property tests run under a derandomized ``hypothesis`` profile: the
examples are a fixed function of each test, so a failure reproduces on
every rerun, and there is no per-example deadline, because timings on a
shared machine are not part of any property.

The ``call_counter`` fixture makes counters of what a target is asked for.
"""

import dataclasses
from collections import Counter

import pytest
from hypothesis import settings

settings.register_profile("postmix", derandomize=True, deadline=None)
settings.load_profile("postmix")


class CallCounter:
    """Counts the calls and points each callable field of a target receives.

    ``wrap`` returns a copy of an ``UnnormalizedTarget`` whose callable
    fields forward to the originals. A field whose name ends in ``_batch``
    counts one point per row of its argument, any other one per call.
    """

    def __init__(self):
        self.calls = Counter()
        self.points = Counter()

    def wrap(self, target):
        return dataclasses.replace(target, **{
            f.name: self._forwarder(f.name, getattr(target, f.name))
            for f in dataclasses.fields(target)
            if callable(getattr(target, f.name))
        })

    def _forwarder(self, name, fn):
        batch = name.endswith("_batch")

        def forward(x):
            self.calls[name] += 1
            self.points[name] += len(x) if batch else 1
            return fn(x)

        return forward


@pytest.fixture
def call_counter():
    """:class:`CallCounter`; each call makes a fresh counter."""
    return CallCounter
