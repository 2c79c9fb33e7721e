"""Base class of the numerical failures: states a computation cannot continue from.

The CLI reports any of them as a structured failure (summary.json with an
``error`` field, exit 1) rather than a traceback.
"""


class NumericalFailure(RuntimeError):
    """location: where the failure happened, when the raiser knows it."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location
