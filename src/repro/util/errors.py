"""Exception hierarchy for the PINUM reproduction.

Every subsystem raises a subclass of :class:`ReproError`, so callers can
catch library failures without accidentally swallowing unrelated bugs.
"""


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class CatalogError(ReproError):
    """Raised for schema/statistics/index metadata problems.

    Examples: registering a duplicate table, referencing an unknown column in
    an index definition, asking for statistics that were never computed.
    """


class QueryError(ReproError):
    """Raised for malformed queries (unknown tables/columns, bad predicates)."""


class PlanningError(ReproError):
    """Raised when the optimizer cannot produce a plan for a valid query."""


class ExecutionError(ReproError):
    """Raised by the executor when a plan cannot be run against loaded data."""


class AdvisorError(ReproError):
    """Raised by the index-selection tool for invalid budgets or inputs."""


def validate_name(kind: str, name: object, table) -> None:
    """Raise unless ``name`` is a key of ``table`` (a name -> implementation dict).

    The one message every behaviour-name table answers a typo with; it lists
    the known names, sorted.
    """
    if name not in table:
        choices = ", ".join(repr(choice) for choice in sorted(table))
        raise AdvisorError(f"unknown {kind} {name!r} (registered: {choices})")
