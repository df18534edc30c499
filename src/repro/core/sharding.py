"""The former sharded cycle enumeration, kept as a name only.

:func:`repro.core.detector.find_cycles` collapses duplicate rows of
``D_sigma`` on integers before its search, which is what the sharded
path's object-level deduplication, SCC partition and expansion were for.
``find_cycles_sharded`` stays importable for callers that still look
it up; it is the one search.
"""

from repro.core.detector import find_cycles

find_cycles_sharded = find_cycles

__all__ = ["find_cycles_sharded"]
