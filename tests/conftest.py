"""Hypothesis profiles for the suite.

``derandomized``, loaded here and so the default, draws the same examples
on every run and keeps no example database: the same tree always gives
the same result.  ``pytest --hypothesis-profile=randomized`` draws fresh
examples on each run to search wider.  Settings objects built at import
time, such as a test module's ``SETTINGS``, inherit whichever profile is
loaded, since test modules are imported after this file and after the
command line option is applied.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("randomized", derandomize=False)
settings.load_profile("derandomized")
