"""Exception types shared across the package."""


class ResourceLimitError(RuntimeError):
    """An operation refused to run because its work would exceed a module-level cap constant."""


class HypothesisError(ValueError):
    """The closed form was requested where its subset-sum gcd condition fails.

    Carries the ConditionReport so callers can inspect the failing subset.
    """

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report
