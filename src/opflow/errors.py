"""One class per exit status, subclassed nowhere; ``cli.main`` picks by class.

ConfigError -> exit 1 (usage/config); DataError or OSError -> exit 2
(bad input data, or a file that cannot be read or written); anything
else, a bare ValueError included, is an internal failure -> exit 3.
"""


class ConfigError(Exception):
    """Invalid configuration, flags, or missing prerequisites."""


class DataError(ValueError):
    """Input data violates a format or content contract (a bad value, too)."""
