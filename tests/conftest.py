"""One Hypothesis profile for every property: derandomized, so each run of
the suite draws the same examples, with no deadline and no example database.
Each ``@settings`` sets only its ``max_examples``."""

from hypothesis import settings

settings.register_profile("featmatch", derandomize=True, deadline=None, database=None)
settings.load_profile("featmatch")
