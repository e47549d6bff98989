"""Shared test settings: hypothesis runs derandomized and keeps no example database."""

from hypothesis import settings

settings.register_profile("spencerbench", derandomize=True, database=None)
settings.load_profile("spencerbench")
