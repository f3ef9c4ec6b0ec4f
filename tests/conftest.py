"""Test-suite configuration.

Property tests run under a derandomized ``hypothesis`` profile: the
examples are a fixed function of each test, so a failure reproduces on
every rerun, and there is no per-example deadline, because timings on a
shared machine are not part of any property.
"""

from hypothesis import settings

settings.register_profile("postmix", derandomize=True, deadline=None)
settings.load_profile("postmix")
