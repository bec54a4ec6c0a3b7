"""Suite-wide Hypothesis settings: the same examples on every run, and no example
database, so two runs of one tree draw the same inputs and report the same counts.
Each test's own max_examples and deadline still apply."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
