"""Exception hierarchy for the :mod:`repro` data-citation library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class.  Subsystems raise the more specific subclasses
below; each carries a human-readable message and, where useful, structured
context attributes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A relation, attribute or key was used inconsistently with the schema."""


class IntegrityError(ReproError):
    """A key or foreign-key constraint was violated by an update."""


class UnknownRelationError(SchemaError):
    """A query or update referenced a relation that does not exist."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown relation: {name!r}")
        self.name = name


class ArityError(SchemaError):
    """An atom or tuple had the wrong number of terms for its relation."""

    def __init__(self, relation: str, expected: int, got: int) -> None:
        super().__init__(
            f"relation {relation!r} has arity {expected}, got {got} terms"
        )
        self.relation = relation
        self.expected = expected
        self.got = got


class QueryError(ReproError):
    """A conjunctive query was malformed (unsafe head, bad parameters, ...)."""


class ParseError(QueryError):
    """The textual form of a query or view could not be parsed."""

    def __init__(self, message: str, text: str = "", position: int | None = None) -> None:
        location = f" at position {position}" if position is not None else ""
        super().__init__(f"{message}{location}")
        self.text = text
        self.position = position


class StaticAnalysisError(ReproError):
    """Static analysis found error-severity diagnostics under strict mode.

    Carries the offending diagnostics (see :mod:`repro.analysis`) on the
    ``diagnostics`` attribute so callers can render or serialize them.
    """

    def __init__(self, message: str, diagnostics: tuple = ()) -> None:
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


class PlanVerificationError(StaticAnalysisError):
    """The IR verifier rejected a compiled plan under ``verify_plans="strict"``.

    Raised from :meth:`~repro.core.engine.CitationEngine.compile_plan` when the
    dataflow verifier (:mod:`repro.analysis.ir`) finds error-severity
    diagnostics in a compiled ``JoinProgram`` or citation program.  Like its
    base class it carries the offending diagnostics on ``diagnostics``.
    """


class RewritingError(ReproError):
    """Query rewriting using views failed or produced an inconsistent result."""


class NoRewritingError(RewritingError):
    """No equivalent rewriting of the query exists over the given views."""

    def __init__(self, query_name: str) -> None:
        super().__init__(
            f"query {query_name!r} has no equivalent rewriting over the citation views"
        )
        self.query_name = query_name


class CitationError(ReproError):
    """Citation construction failed (missing view, bad policy, ...)."""


class PolicyError(CitationError):
    """A citation-combination policy was misconfigured."""


class VersionError(ReproError):
    """A versioned-database operation referenced an unknown or invalid version."""


class ProvenanceError(ReproError):
    """A provenance annotation or semiring operation was invalid."""


class OntologyError(ReproError):
    """An RDF/ontology operation referenced unknown classes or produced a cycle."""


# -- resilience taxonomy ------------------------------------------------------
#
# The serving layer classifies failures into *transient* (worth retrying:
# the same request may succeed a moment later on an unchanged system) and
# *permanent* (retrying is wasted work: the request itself is at fault).
# :class:`TransientError` is the marker base; :func:`is_transient` folds in
# stdlib exception types that cross the process/OS boundary, so callers ask
# one question instead of growing private isinstance ladders.


class TransientError(ReproError):
    """Marker base for failures that may succeed if the caller retries.

    Subclasses describe conditions of the *system* (a full admission queue)
    rather than of the *request*; a :class:`RetryPolicy
    <repro.resilience.retry.RetryPolicy>` retries these and nothing else.
    """


class DeadlineExceeded(ReproError, TimeoutError):
    """A request ran past its deadline and was cooperatively cancelled.

    Raised from a cancellation checkpoint (rewriting search, join loop,
    citation assembly, a wait on another request's compile) the moment the propagated
    :class:`~repro.resilience.deadline.Deadline` expires.  ``where`` names the
    checkpoint that fired, so traces show how deep the request got.  Also a
    :class:`TimeoutError` so existing ``except TimeoutError`` callers treat
    engine-side cancellation like the pool-side timeout it replaces.

    Deliberately **not** transient: retrying an expired request against the
    same deadline cannot succeed, and the caller's clock — not the system's
    state — is what changed.
    """

    def __init__(self, where: str = "", remaining: float = 0.0) -> None:
        suffix = f" at {where}" if where else ""
        super().__init__(f"deadline exceeded{suffix}")
        self.where = where
        self.remaining = remaining

    def __reduce__(self):  # a pickled copy keeps ``where`` and ``remaining``
        return (type(self), (self.where, self.remaining))


class Overloaded(TransientError):
    """The service shed this request: admission queue and in-flight slots full.

    Carries ``retry_after`` (seconds), a backoff hint derived from observed
    service times, so well-behaved clients spread their retries instead of
    stampeding the moment capacity frees up.
    """

    def __init__(self, message: str, retry_after: float = 0.1) -> None:
        super().__init__(message)
        self.retry_after = retry_after

    def __reduce__(self):  # a pickled copy keeps ``retry_after``
        return (type(self), (self.args[0], self.retry_after))


def is_transient(error: BaseException) -> bool:
    """Whether *error* is worth retrying against an unchanged request.

    True for the :class:`TransientError` hierarchy plus stdlib conditions
    that originate in the environment rather than the request:
    ``ConnectionError`` and ``InterruptedError``.  :class:`DeadlineExceeded`
    is always permanent (see its docstring), even though it subclasses
    ``TimeoutError``.
    """
    if isinstance(error, DeadlineExceeded):
        return False
    return isinstance(error, (TransientError, ConnectionError, InterruptedError))


#: Exception type -> stable machine-readable code for response envelopes.
#: Checked in order, so subclasses must precede their bases.
_ERROR_CODES: tuple[tuple[type[BaseException], str], ...] = (
    (DeadlineExceeded, "DEADLINE_EXCEEDED"),
    (Overloaded, "OVERLOADED"),
    (ParseError, "PARSE_ERROR"),
    (PlanVerificationError, "PLAN_VERIFICATION_FAILED"),
    (StaticAnalysisError, "STATIC_ANALYSIS_FAILED"),
    (NoRewritingError, "NO_REWRITING"),
    (RewritingError, "REWRITING_FAILED"),
    (UnknownRelationError, "UNKNOWN_RELATION"),
    (ArityError, "ARITY_MISMATCH"),
    (SchemaError, "SCHEMA_ERROR"),
    (IntegrityError, "INTEGRITY_ERROR"),
    (QueryError, "QUERY_ERROR"),
    (PolicyError, "POLICY_ERROR"),
    (CitationError, "CITATION_ERROR"),
    (VersionError, "VERSION_ERROR"),
    (ProvenanceError, "PROVENANCE_ERROR"),
    (OntologyError, "ONTOLOGY_ERROR"),
    (TimeoutError, "TIMEOUT"),
)


def error_code_for(error: BaseException) -> str:
    """Stable machine-readable code for *error* (``"DEADLINE_EXCEEDED"``, ...).

    Unlisted exception types fall back to the upper-cased class name, so
    every error gets *some* code and new types degrade gracefully rather
    than all collapsing into one bucket.
    """
    for exc_type, code in _ERROR_CODES:
        if isinstance(error, exc_type):
            return code
    return type(error).__name__.upper()
