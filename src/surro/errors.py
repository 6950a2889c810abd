"""The root of every error surro raises on purpose."""


class SurroError(Exception):
    """Base of each module's error family; `surro` commands report it as exit code 1."""
