"""Shared exception types."""


class ModelError(ValueError):
    """Structurally invalid complex, path, map or input file."""


class PathCapExceeded(RuntimeError):
    """A pair is over a path cap.  The class tables count its classes
    against ``cubecore.DEFAULT_PATH_CAP``; ``enumerate_dpaths`` counts its
    dipaths against its ``cap``.

    Carries the offending endpoint pair so callers can report it.
    """

    def __init__(self, pair, cap):
        super().__init__(f"pair {pair} is over the path cap {cap}")
        self.pair = pair
        self.cap = cap


class BudgetExceeded(RuntimeError):
    """A search budget (partition cap, bijection cap, ...) was exhausted."""
