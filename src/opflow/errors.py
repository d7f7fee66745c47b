"""Shared exception bases, mapped to CLI exit codes.

ConfigError -> exit 1 (usage/config), DataError -> exit 2 (bad input
data).  ``cli.main`` also maps a ValueError or an OSError to exit 2, so
an internal ValueError reads as bad input (the ROADMAP plans exit 3 for
it); anything else escaping a subcommand is an internal failure (exit 3).
"""


class ConfigError(Exception):
    """Invalid configuration, flags, or missing prerequisites."""


class DataError(Exception):
    """Input data violates a format or content contract."""
