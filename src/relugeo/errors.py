"""Exception types shared by all relugeo modules."""


class RelugeoError(Exception):
    """Base class for all errors raised by this package."""


class ZeroVector(RelugeoError):
    pass


class DimensionMismatch(RelugeoError):
    pass


class LengthMismatch(RelugeoError):
    pass


class DegenerateNeuron(RelugeoError):
    """Raised when a hidden neuron has w2*w1 = 0.  Carries the 1-based index."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"neuron {index} is degenerate (w2*w1 = 0)")


class NonPositiveScale(RelugeoError):
    def __init__(self, index):
        self.index = index
        super().__init__(f"scale {index} must be positive")


class EnumerationCapExceeded(RelugeoError):
    def __init__(self, n, cap):
        self.n = n
        self.cap = cap
        super().__init__(f"{n} terms exceed the enumeration cap of {cap}")


class EqualDirections(RelugeoError):
    pass


class CapExceeded(RelugeoError):
    pass


class SchemaError(RelugeoError):
    """JSON input whose values have the wrong type or shape."""


class ParseError(RelugeoError):
    """Syntax error in the piecewise-affine expression grammar.

    ``position`` is 1-based; ``expected`` is the set of token descriptions
    that would have been accepted at that position.
    """

    def __init__(self, position, expected, found=None):
        self.position = position
        self.expected = frozenset(expected)
        self.found = found
        what = f", found {found!r}" if found is not None else ""
        super().__init__(
            f"parse error at position {position}: expected "
            f"{' or '.join(sorted(self.expected))}{what}"
        )


class NotFlat(RelugeoError):
    pass


class NotLocallyAffine(RelugeoError):
    pass


class NotTransversal(RelugeoError):
    """Breakline arrangement violates the independent-normals condition."""

    def __init__(self, violation):
        self.violation = violation
        super().__init__(
            f"breaklines {sorted(i + 1 for i in violation.indices)} meet with "
            "linearly dependent normals"
        )


class NotRepresentable(RelugeoError):
    """The input function is not the response of any shallow ReLU network."""

    def __init__(self, reason, detail=None):
        self.reason = reason  # "JumpNotParallel" | "ResidualNotAffine" | "MissingBreakline"
        self.detail = detail
        msg = reason if detail is None else f"{reason}: {detail}"
        super().__init__(msg)
