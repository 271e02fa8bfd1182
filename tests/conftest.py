"""One hypothesis profile for the whole suite, so that every run draws the same examples.

derandomize makes the examples a function of each test alone, so a failure reproduces on any
machine without an example database; database=None keeps none. deadline=None, because a
training draw's time depends on the host, not on the code under test.
"""

from hypothesis import settings

settings.register_profile("fedsim", derandomize=True, database=None, deadline=None)
settings.load_profile("fedsim")
