"""Suite-wide test settings.

Every hypothesis test draws its examples from a fixed seed and keeps no
example database, so each run of the suite tries the same examples; a test
sets only its own example count and deadline.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
