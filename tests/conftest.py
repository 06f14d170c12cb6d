"""Shared test settings: one hypothesis profile for the whole suite.

Exact arithmetic on orbit values makes single examples slow at times, and
the time of an example depends on the machine, so no example has a deadline.
"""

from hypothesis import settings

settings.register_profile("tamedyn", deadline=None)
settings.load_profile("tamedyn")
