"""Exception types shared across the library.

Every error that can be traced to a location in a complex carries enough
context (degree, bigrade, basis label) to print a usable diagnostic.
"""


class ThlError(Exception):
    """Base class for all library errors."""


class AlgebraError(ThlError):
    """Structure-constant table violates associativity or the unit laws."""


class ActionError(ThlError):
    """A map is not a valid automorphism, or the action is not a homomorphism."""


class ReducedBasisError(ThlError):
    """A reduced (normalized) slot was requested but the unit is not basis vector 0."""


class LocatedError(ThlError):
    """An error at a place in a complex: the message names the location
    and the offending basis tensor when they are given."""

    def __init__(self, msg, location=None, basis_label=None):
        if location is not None:
            msg = f"{msg} [at {location}]"
        if basis_label is not None:
            msg = f"{msg} [offending basis tensor {basis_label}]"
        super().__init__(msg)
        self.location = location
        self.basis_label = basis_label


class WellDefinednessError(LocatedError):
    """An operator does not descend to the requested quotient."""


class ChainMapError(ThlError):
    """A candidate chain map fails to commute with the differentials."""


class ComplexError(LocatedError):
    """d . d != 0, or a bicomplex identity fails on the truncation."""


class ParseError(ThlError):
    """Config file is malformed; message carries field/line context."""


class ValidationError(ThlError):
    """Config parsed but the described objects fail validation."""
