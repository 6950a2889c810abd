"""The root of every error surro raises on purpose."""


class SurroError(Exception):
    """Raised as is unless a handler names a subclass; `surro` commands report it as exit code 1."""
