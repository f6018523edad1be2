"""Exception types shared across the solvers."""


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to meet its tolerance.

    Raised for conditions that are numerical rather than type/shape problems,
    such as a root that cannot be bracketed.
    """

