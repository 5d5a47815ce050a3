"""One hypothesis profile for the suite: the same examples on every run, no
example database written to disk, and no per-example deadline (timing on a
shared machine is not what the property tests check)."""

from hypothesis import settings

settings.register_profile("swirlcurv", derandomize=True, database=None, deadline=None)
settings.load_profile("swirlcurv")
