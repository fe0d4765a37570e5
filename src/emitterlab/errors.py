"""Shared exception types.

The split matters to the CLI: configuration/precondition problems exit
with code 2, numerical failures during a computation exit with code 3.
"""


class ModelError(ValueError):
    """Invalid model construction or violated operation precondition."""


class NumericFailure(RuntimeError):
    """A computation produced non-finite, non-physical or non-converged
    results beyond tolerance."""


class ConfigError(ValueError):
    """Invalid experiment configuration; names the offending key, or every
    key of a violated cross-key constraint."""

    def __init__(self, keys, message: str):
        self.keys = (keys,) if isinstance(keys, str) else tuple(keys)
        names = ", ".join(f"'{key}'" for key in self.keys)
        plural = "s" if len(self.keys) > 1 else ""
        super().__init__(f"config key{plural} {names}: {message}")
