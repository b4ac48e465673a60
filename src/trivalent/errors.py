"""Exception types shared across the package."""


class TrivalentError(Exception):
    pass


# --- diagram construction / validation ---

class InvalidDiagram(TrivalentError):
    pass


class DanglingHalfEdge(InvalidDiagram):
    """A half-edge id occurs zero times or more than once among vertex slots and legs."""

    def __init__(self, half_edge):
        self.half_edge = half_edge
        super().__init__(f"half-edge {half_edge!r} is not covered exactly once")


class PairingNotInvolution(InvalidDiagram):
    def __init__(self, half_edge, reason=""):
        self.half_edge = half_edge
        super().__init__(f"pairing broken at half-edge {half_edge!r}: {reason}")


class DuplicateLegLabel(InvalidDiagram):
    def __init__(self, label):
        self.label = label
        super().__init__(f"leg label {label} used more than once")


class BadLegRange(InvalidDiagram):
    def __init__(self, label, k):
        self.label = label
        super().__init__(f"leg label {label} outside 1..{k}")


# --- diagram operations ---

class BadIndex(TrivalentError):
    pass


class LegCountMismatch(TrivalentError):
    pass


class NotAPermutation(TrivalentError):
    pass


class NotAThreeGraph(TrivalentError):
    pass


class LoopEdge(TrivalentError):
    pass


class HasLegs(TrivalentError):
    pass


# --- scalar backends / tensors ---

class BackendMismatch(TrivalentError):
    pass


class DegenerateForm(TrivalentError):
    pass


class OrthonormalizationFailed(TrivalentError):
    pass


class ZeroDimension(TrivalentError):
    pass


# --- evaluation / enumeration guards ---

class TooLarge(TrivalentError):
    pass


class DanglingAxes(TrivalentError):
    """A diagram's tensor network leaves open axes that are not its legs."""


class TableMiss(TrivalentError):
    def __init__(self, code):
        self.code = code
        super().__init__(f"no table entry for canonical code {code!r}")
