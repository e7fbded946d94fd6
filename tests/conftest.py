"""Hypothesis settings for the whole suite.

Every property test draws the same examples on every run, so its verdict
is repeatable: ``derandomize`` derives a test's examples from the test
itself, and with no example database no run replays what an earlier run
saved.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
