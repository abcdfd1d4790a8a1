"""Test-wide Hypothesis settings.

Every property test draws the same examples on every run, so a differential
test against an oracle checks a fixed, repeatable set of inputs.  Each test
keeps its own `max_examples` and `deadline`; derandomizing also turns off the
example database.
"""

from hypothesis import settings

settings.register_profile("facelab", derandomize=True)
settings.load_profile("facelab")
