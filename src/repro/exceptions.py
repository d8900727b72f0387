"""Exception hierarchy for the :mod:`repro` library.

Every exception raised deliberately by this library derives from
:class:`ReproError`, so downstream users can catch library failures with a
single ``except`` clause while still being able to distinguish the subsystem
that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class DistributionError(ReproError):
    """Raised when an inter-arrival distribution is invalid or unusable.

    Examples: a pmf that does not sum to one, non-positive Weibull shape,
    or a truncation horizon too short to hold the requested mass.
    """


class EnergyError(ReproError):
    """Raised for invalid energy configurations.

    Examples: negative battery capacity, a recharge process with
    non-positive mean rate, or discharging more energy than available.
    """


class PolicyError(ReproError):
    """Raised when a policy is malformed or cannot be constructed.

    Examples: activation probabilities outside ``[0, 1]``, clustering
    region boundaries out of order, or an energy budget that no feasible
    policy can satisfy.
    """


class SolverError(ReproError):
    """Raised when an MDP/POMDP/LP solver fails to converge or is misused."""


class ServeError(ReproError):
    """Raised for invalid ``repro serve`` requests or server misuse.

    Examples: a request body that fails schema validation, an unknown
    policy family, or a malformed event-model spec.  The HTTP layer maps
    these to ``400`` responses.
    """


class RequestTooLargeError(ServeError):
    """Raised for a ``repro serve`` request whose work exceeds a budget.

    Example: a ``/sweep`` asking for more simulated slots in total than
    the service will hold in memory at once.  The HTTP layer maps it to
    ``413``.
    """


class SimulationError(ReproError):
    """Raised for invalid simulation configurations or runtime violations.

    A :class:`SimulationError` during a run indicates a broken invariant
    (e.g. a battery level outside ``[0, K]``) and is always a bug, either
    in the library or in a user-supplied policy.
    """
