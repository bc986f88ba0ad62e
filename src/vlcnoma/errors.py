"""The package's one exception type for bad input."""


class ParameterError(ValueError):
    """An argument, config value or setting violates a documented precondition."""
