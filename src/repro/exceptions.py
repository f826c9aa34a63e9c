"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the common failure families.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by :mod:`repro`."""


class ConfigurationError(ReproError, ValueError):
    """An invalid machine/algorithm configuration was supplied.

    Raised, e.g., for non-positive cache sizes, a shared cache smaller
    than the union of the distributed caches, or a core count that an
    algorithm cannot handle (Algorithm 2 requires a square core count).
    """


class ScheduleError(ReproError):
    """An algorithm emitted an inconsistent or incomplete schedule.

    For instance, a numeric execution that never writes some block of
    ``C``, or a block multiply-add with mismatched operand coordinates.
    """


class ParameterError(ReproError, ValueError):
    """No feasible algorithm parameter exists for the given machine.

    Typical cause: a distributed cache too small to hold even the three
    blocks (one of each matrix) needed for a single multiply-add.
    """


class FabricError(ReproError):
    """A coordinator/worker fabric operation failed.

    Base of the fabric failure family; deliberately *not* in the
    permanent-error set — fabric failures are infrastructure weather
    (a dropped connection, a dead peer) and retrying is the norm.
    """


class ProtocolError(FabricError):
    """A fabric peer sent a malformed, corrupt or unexpected message.

    Covers framing violations (oversized or unterminated lines), JSON
    that does not parse, version/checksum mismatches, and replies whose
    type the requester cannot interpret.
    """
