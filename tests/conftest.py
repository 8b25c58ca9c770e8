"""Shared test settings.

Property tests run under one hypothesis profile: a fixed example sequence
(``derandomize``), no per-example deadline (wall time on a loaded host says
nothing about correctness) and a capped example count, so tier-1 stays
deterministic and fast.  No example database is written.
"""

from hypothesis import settings

settings.register_profile("gfdm", derandomize=True, deadline=None, max_examples=25, database=None)
settings.load_profile("gfdm")
