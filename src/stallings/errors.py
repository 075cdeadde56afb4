"""Error types shared across the library.

Every exception carries a stable machine-readable ``code`` so that callers
(and the CLI) can dispatch on failure kind without parsing messages.
"""

from __future__ import annotations


class StallingsError(Exception):
    """Base class; ``code`` is a stable identifier for the failure kind."""

    code = "error"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details


class InputError(StallingsError):
    """Malformed or out-of-contract input (CLI exit code 2)."""

    code = "invalid_input"


class PreconditionError(InputError):
    """A documented operation precondition does not hold."""

    code = "precondition_violated"


class NotInjectiveError(InputError):
    """A partial map that must be injective is not."""

    code = "not_injective"


class NotPartialIsomorphismError(InputError):
    """A partial map fails to preserve and reflect some relation tuple."""

    code = "not_partial_isomorphism"


class NotSubtadpoleError(InputError):
    """A family graph has two degree-3 vertices or a vertex of degree > 3."""

    code = "not_subtadpole"


class RootClosureError(PreconditionError):
    """A cyclic subgroup required to be closed under l-roots is not.

    ``details["witness"]`` carries the violating word w (w^l in H, w not in H)
    and ``details["l"]`` the arity.
    """

    code = "not_root_closed"


class ForcedCycleError(StallingsError):
    """Orbit completion would force a relation cycle (root-closure failure)."""

    code = "forced_cycle"


class PostconditionError(StallingsError):
    """A result failed a check that the theory guarantees (CLI exit code 1).

    It signals a library bug, not bad input. Unlike ``assert``, the check
    still runs under ``python -O``.
    """

    code = "postcondition_failed"


class SearchCapError(StallingsError):
    """A bounded search ran out of budget (CLI exit code 3)."""

    code = "search_cap_exhausted"


class ResourceCapError(StallingsError):
    """A construction would exceed a documented size cap (CLI exit code 3)."""

    code = "resource_cap_exceeded"
