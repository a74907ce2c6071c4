"""Exception types shared across the package."""


class ResourceLimitError(RuntimeError):
    """An operation exceeded a configured size or budget limit.

    Raised instead of attempting factorial-scale work past the configured
    maximum; the message names the limit so callers can adjust it.
    """
