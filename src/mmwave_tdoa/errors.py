"""Error types shared across the simulator.

The CLI maps ConfigurationError to exit code 2 and returns 0 on success;
everything else is a bug.
"""


class ConfigurationError(ValueError):
    """Invalid configuration, geometry, or input data (caught before trials run)."""
