"""Exception taxonomy shared across the package.

Argument and shape errors raise plain ``ValueError``; the classes below
cover failures that callers are expected to branch on (and that the CLI
maps to distinct exit codes).
"""


class CraftError(Exception):
    """Base class for all library-specific errors."""


class FormatError(CraftError):
    """File structure is malformed (bad magic, malformed header, wrong payload length)."""


class UnsupportedError(CraftError):
    """Input is well formed but uses a feature outside the supported subset."""


class DataError(CraftError):
    """Input values violate a data contract (non-finite, negative, empty)."""


class EmptySetError(DataError):
    """A selection step produced an empty set that downstream stages require."""


class InsufficientDataError(DataError):
    """Too few samples survived a selection step to fit anything meaningful."""


class NumericalError(CraftError):
    """A numerical procedure broke down (singular system, failed factorization)."""


class DegeneracyError(NumericalError):
    """Strict complementarity fails at the solution, so the solution map is
    not differentiable there.

    ``coordinates`` lists the offending (row, column) pairs.
    """

    def __init__(self, coordinates, margin):
        self.coordinates = list(coordinates)
        self.margin = margin
        shown = ", ".join(f"({i}, {j})" for i, j in self.coordinates[:8])
        if len(self.coordinates) > 8:
            shown += ", ..."
        super().__init__(
            f"degenerate KKT point: primal and dual both below {margin:g} "
            f"at coordinates {shown}"
        )
