"""Exception types shared by all modules."""


class TgkitError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(TgkitError):
    pass


class JacobiViolation(TgkitError):
    def __init__(self, residual):
        self.residual = float(residual)
        super().__init__(f"Jacobi residual {self.residual:.3e} exceeds tolerance")


class NotPositiveDefinite(TgkitError):
    def __init__(self, min_eig):
        self.min_eig = float(min_eig)
        super().__init__(f"matrix not positive definite (smallest eigenvalue {self.min_eig:.3e})")


class NonFiniteInput(TgkitError):
    """A structure constant or gram entry is NaN or infinite."""


class DegeneratePlane(TgkitError):
    pass


class NonUnitVector(TgkitError):
    pass


class NotHelixOrderTwo(TgkitError):
    def __init__(self, order):
        self.order = int(order)
        super().__init__(f"orbit has Frenet order {self.order}, need exactly 2")


class IdealResidualExceeded(TgkitError):
    def __init__(self, residual):
        self.residual = float(residual)
        super().__init__(
            f"complement of the helix span fails the ideal test (residual {self.residual:.3e})")


class NotRecognized(TgkitError):
    pass


class NotTotallyGeodesic(TgkitError):
    """A normal fails a TG gate; `label` names the residual that failed."""

    def __init__(self, residual, label="tg_residual"):
        self.residual = float(residual)
        self.label = label
        name = "hyperplane residual" if label == "tg_residual" else label
        super().__init__(f"{name} {self.residual:.3e} exceeds certification tolerance")


class MetricDegenerate(TgkitError):
    pass


class IrregularCurve(TgkitError):
    pass


class UnknownName(TgkitError):
    pass


class BadParams(TgkitError):
    pass


class AlgebraFileError(TgkitError):
    pass
