"""Shared test settings."""

from hypothesis import settings

# No per-example deadline: the host's speed varies by tens of percent
# within a minute, so wall-clock deadlines would fail at random.  A fixed
# example count keeps the property tests' run time bounded.
settings.register_profile("iqcradius", deadline=None, max_examples=100)
settings.load_profile("iqcradius")
