"""Settings shared by every test module."""

from hypothesis import settings

# every property runs the same examples on each run and keeps no example
# database, so CI and a local run see the same cases; a test sets only its
# number of examples
settings.register_profile("blehop", deadline=None, derandomize=True, database=None)
settings.load_profile("blehop")
