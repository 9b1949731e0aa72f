"""Test-session settings: hypothesis draws the same examples on every run,
so the suite's time and coverage do not change from one run to the next.
Each test's own ``settings`` (example counts, deadlines) still apply."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
