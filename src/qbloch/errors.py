"""Shared error types, mapped to CLI exit codes 2, 3 and 4."""


class UsageError(ValueError):
    """Malformed input or incompatible arguments (CLI exit code 2)."""


class BudgetError(RuntimeError):
    """A configured resource budget would be exceeded (CLI exit code 3)."""


class OutputError(RuntimeError):
    """The --out file could not be written (CLI exit code 4)."""
