"""Exception types shared across the package."""

import numpy as np


class ZdrdError(Exception):
    """Base class for all zdrd errors."""


class DimensionMismatch(ZdrdError, ValueError):
    """Matrix or vector shapes are mutually inconsistent."""


class NotPSD(ZdrdError, ValueError):
    """A matrix required to be positive semidefinite is not."""


class NotPD(ZdrdError, ValueError):
    """A matrix required to be strictly positive definite is not."""


class EigenFailure(ZdrdError, ArithmeticError):
    """An eigenvalue iteration failed to converge."""


class InfeasibleModel(ZdrdError, ValueError):
    """No strictly feasible point exists for the requested program."""


class SolverDivergence(ZdrdError, ArithmeticError):
    """The barrier iteration exceeded its iteration caps without converging."""


class BadDistortion(ZdrdError, ValueError):
    """The distortion target is not a positive real number."""


class OrderViolation(ZdrdError, ValueError):
    """Diagonal covariance profiles violate the required elementwise order."""


class ConfigParse(ZdrdError, ValueError):
    """An experiment configuration document could not be parsed."""


class AlphabetOverflow(ZdrdError, RuntimeError):
    """The observed joint quantizer alphabet exceeded the configured cap."""


def failure_status(exc):
    """Status of a grid point that raised: ``failed:<Type>: <message>`` on one line."""
    message = " ".join(str(exc).split())
    name = type(exc).__name__
    return f"failed:{name}: {message}" if message else f"failed:{name}"


# errors that fail one grid point of a sweep (or one row of a coding batch)
# and leave the others running
POINT_ERRORS = (ZdrdError, np.linalg.LinAlgError, ArithmeticError)
