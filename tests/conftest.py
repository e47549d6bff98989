"""Shared test settings: hypothesis runs derandomized and keeps no example
database. The "spencerbench-thorough" profile (``--hypothesis-profile
spencerbench-thorough``) runs 2000 examples per property instead of 100."""

from hypothesis import settings

settings.register_profile("spencerbench", derandomize=True, database=None)
settings.register_profile("spencerbench-thorough", derandomize=True, database=None,
                          max_examples=2000)
settings.load_profile("spencerbench")
