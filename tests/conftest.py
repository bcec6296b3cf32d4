"""Test-wide settings.

Hypothesis draws its examples from a seed fixed by each test, and keeps no
example database, so every run tries the same examples: a failure repeats
on the next run, and a pass is not luck of the draw.  Each test's own
max_examples and deadline still apply.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
