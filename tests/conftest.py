"""Shared test settings: every `hypothesis` test draws the same examples on
every run, so the suite is deterministic; a test's own `max_examples` stands."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
