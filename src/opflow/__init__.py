"""Detect the event basis of information operations in news flows.

The library follows the flow from a timestamped corpus to its event
structure: filter a thematic flow, study its daily dynamics against a
lifecycle template, extract the terminological basis, narrow to event
documents, and cluster them around seeded event keywords.  The top
level holds the loader, the correlogram scan and the two error classes;
every other name is imported from the module of its stage.
"""

from .corpus import load_corpus
from .errors import ConfigError, DataError
from .flowseries import DEFAULT_TEMPLATE, build_daily_series, correlogram, detect_peaks
