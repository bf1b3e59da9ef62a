"""Shared test settings: every property test draws the same examples on
every run, keeps no example database and has no deadline."""

from hypothesis import settings

settings.register_profile("pospart", derandomize=True, database=None, deadline=None)
settings.load_profile("pospart")
