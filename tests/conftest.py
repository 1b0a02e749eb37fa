"""Shared test settings: every Hypothesis property test is deterministic.

Examples come from a fixed derivation (``derandomize``), nothing is read from
or written to an example database, and slow examples never time out; call
sites set only ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("deterministic", database=None, derandomize=True, deadline=None)
settings.load_profile("deterministic")
