"""Shared exception types."""


class ModelError(ValueError):
    """Structurally invalid complex, path, map or input file."""


class PathCapExceeded(RuntimeError):
    """A pair has more classes than the class tables' path cap
    ``cubecore.DEFAULT_PATH_CAP``, or more dipaths than the ``cap`` of
    ``enumerate_dpaths``: more dipaths than the cap in both cases.

    Carries the offending endpoint pair so callers can report it.
    """

    def __init__(self, pair, cap):
        super().__init__(f"more than {cap} dipaths for pair {pair}")
        self.pair = pair
        self.cap = cap


class BudgetExceeded(RuntimeError):
    """A search budget (partition cap, bijection cap, ...) was exhausted."""
