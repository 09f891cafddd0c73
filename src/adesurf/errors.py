"""Exception hierarchy shared across the package."""


class AdesurfError(Exception):
    """Base class for all domain errors raised by this package."""


class BasisMismatchError(AdesurfError):
    """Two lattice classes from different bases were combined or paired."""


class UnrelatedModelsError(AdesurfError):
    """change_basis was asked for a pair of models with no documented dictionary."""


class EnumerationBoundError(AdesurfError):
    """An enumeration was refused: bounds too large, or residual lattice not definite."""


class OrbitCapExceededError(AdesurfError):
    """A Weyl-orbit closure exceeded its safety cap."""


class ParityViolationError(AdesurfError):
    """D*D - D*K came out odd; the Gram matrix of the model is corrupt."""


class RepresentationMismatchError(AdesurfError):
    """A tautological bundle was requested on a surface of the wrong kind."""


class BoundaryRestrictionError(AdesurfError):
    """A bundle with summands of nonzero boundary degree cannot be restricted flatly."""


class NonReducedCoverError(AdesurfError):
    """The discriminant of a spectral cover vanished identically."""


class DegreeDataError(AdesurfError):
    """Declared fiber-degree bookkeeping for a conic family is inconsistent."""


class RingConstructionError(AdesurfError):
    """A truncated quotient ring was given non-solvable or inhomogeneous relations."""


class CollisionConfigError(AdesurfError):
    """A filtration block was requested without the matching collision configuration."""


class SchemaError(AdesurfError):
    """A JSON document failed validation.  `path` names the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
