"""The pluggable backend protocol of the unified citation API.

A :class:`CitationBackend` adapts one query model (relational CQ, union,
temporal, RDF, versioned, ...) to the five-phase serving pipeline that
:class:`~repro.service.service.CitationService` drives:

``parse`` → ``fingerprint`` → ``compile`` (plan-cached) → ``execute``
(result-cached) → cite.

The backend also tells the service how to cache its work: validity tokens
(:meth:`CitationBackend.result_token` / :meth:`CitationBackend.plan_token`)
stamp cache entries so mutations invalidate them,
:meth:`CitationBackend.refresh_result` may bring a cached result whose stamp
a mutation has moved past forward instead of discarding it, a cache variant
(:meth:`CitationBackend.cache_variant`) separates entries that share a
fingerprint but must not share an execution (e.g. formal vs economical mode,
or different pinned versions), :meth:`CitationBackend.plan_key` and
:meth:`CitationBackend.instantiate` let one plan serve several fingerprints,
and :meth:`CitationBackend.rebind` re-attaches a cached result to a
structurally identical variant of its query.

Registering a new backend is three steps: subclass :class:`CitationBackend`,
describe it with :class:`BackendCapabilities`, and
``service.register_backend(MyBackend(...))`` — see the backend-author guide
in the README.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from collections.abc import Hashable, Iterator
from typing import Any

from repro.api.envelope import CitationRequest
from repro.core.citation import Citation
from repro.errors import CitationError

__all__ = ["BackendCapabilities", "CitationBackend", "BackendRegistry"]


@dataclass(frozen=True)
class BackendCapabilities:
    """What one backend can do, used for routing and cache policy.

    ``dialects`` are the string-payload dialects the backend parses;
    ``payload_types`` the query object types it accepts.  The three
    ``supports_*`` flags gate the service's plan cache, result cache and
    per-request policy overrides; ``supports_as_of`` admits requests that pin
    a point in data history (a temporal era or a committed version).
    """

    name: str
    description: str = ""
    dialects: tuple[str, ...] = ()
    payload_types: tuple[type, ...] = ()
    modes: tuple[str, ...] = ()
    supports_plan_cache: bool = True
    supports_result_cache: bool = True
    supports_as_of: bool = False
    supports_policy_override: bool = False

    def as_dict(self) -> dict[str, Any]:
        """A JSON-friendly summary (``stats()`` and the CLI use this)."""
        return {
            "name": self.name,
            "description": self.description,
            "dialects": list(self.dialects),
            "payload_types": [t.__name__ for t in self.payload_types],
            "modes": list(self.modes),
            "supports_plan_cache": self.supports_plan_cache,
            "supports_result_cache": self.supports_result_cache,
            "supports_as_of": self.supports_as_of,
            "supports_policy_override": self.supports_policy_override,
        }


class CitationBackend(abc.ABC):
    """Adapter between the request envelope and one citation engine.

    The five abstract phases are the contract; the cache-integration hooks
    have sensible defaults (no variant, identity rebind, result token shared
    with the plan token, no refresh of stale results) that a backend
    overrides as needed.
    """

    #: Registry key and default routing name; adapters set this.
    name: str = "backend"

    # -- the five phases -----------------------------------------------------
    @abc.abstractmethod
    def capabilities(self) -> BackendCapabilities:
        """Static description of the backend (cached by callers)."""

    @abc.abstractmethod
    def parse(self, request: CitationRequest) -> Any:
        """Turn the request payload into the backend's query object."""

    @abc.abstractmethod
    def fingerprint(self, parsed: Any, request: CitationRequest) -> str:
        """A structural cache key: isomorphic queries collide, others don't."""

    @abc.abstractmethod
    def compile(self, parsed: Any, request: CitationRequest) -> Any:
        """The expensive, reusable part (e.g. the view-rewriting search)."""

    @abc.abstractmethod
    def execute(self, plan: Any, parsed: Any, request: CitationRequest) -> Any:
        """Evaluate a compiled plan into the backend-native cited result."""

    # -- cache integration ---------------------------------------------------
    @abc.abstractmethod
    def result_token(self, request: CitationRequest) -> Hashable:
        """Validity stamp for cached results (changes when the data does)."""

    def plan_token(self, request: CitationRequest) -> Hashable:
        """Validity stamp for cached plans (default: same as results)."""
        return self.result_token(request)

    def refresh_result(
        self, result: Any, token: Hashable, request: CitationRequest
    ) -> tuple[Any, Hashable] | None:
        """Bring a cached *result*, stamped *token*, forward to the data now.

        Returns the result to serve and its new stamp, or ``None`` when only
        a new execution can answer (the default: any mutation retires every
        cached result).  The relational backend, and the temporal backend
        through it, bring results forward through the database's change log.
        """
        return None

    def cache_variant(self, request: CitationRequest) -> Hashable:
        """Discriminator added to cache keys beside the fingerprint."""
        return None

    def plan_key(self, parsed: Any, request: CitationRequest, fingerprint: str) -> Hashable:
        """The plan-cache key; a coarser one than the fingerprint lets a plan
        serve several fingerprints through :meth:`instantiate`."""
        return fingerprint

    def instantiate(self, plan: Any, parsed: Any, request: CitationRequest) -> Any:
        """The cached *plan* of *parsed*'s :meth:`plan_key` made its own."""
        return plan

    def rebind(self, result: Any, parsed: Any, request: CitationRequest) -> Any:
        """Re-attach a cached result to an isomorphic variant of its query."""
        return result

    # -- response helpers ----------------------------------------------------
    @abc.abstractmethod
    def citation_of(self, result: Any) -> Citation:
        """The backend-independent citation carried by a native result."""

    def row_count(self, result: Any) -> int | None:
        """Number of answer rows, when the result has that notion."""
        try:
            return len(result)
        except TypeError:
            return None

    # -- routing -------------------------------------------------------------
    def claims(self, request: CitationRequest) -> bool:
        """Whether this backend should serve *request* under auto-routing.

        The default matches on capabilities: explicit dialects beat payload
        types, and ``as_of`` requests only go to time-travel backends.
        """
        capabilities = self.capabilities()
        if request.as_of is not None and not capabilities.supports_as_of:
            return False
        if request.dialect != "auto":
            return request.dialect in capabilities.dialects
        return isinstance(request.query, capabilities.payload_types)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class BackendRegistry:
    """Named backends plus request routing, in registration order.

    Routing honours an explicit ``request.backend`` name first; otherwise the
    first registered backend whose :meth:`CitationBackend.claims` accepts the
    request wins, so registration order is the routing priority.
    """

    def __init__(self) -> None:
        self._backends: dict[str, CitationBackend] = {}

    def register(self, backend: CitationBackend, replace: bool = False) -> CitationBackend:
        """Add *backend* under its name; duplicate names need ``replace``."""
        if backend.name in self._backends and not replace:
            raise CitationError(
                f"a backend named {backend.name!r} is already registered "
                "(pass replace=True to swap it)"
            )
        self._backends[backend.name] = backend
        return backend

    def unregister(self, name: str) -> None:
        """Remove the backend registered under *name* (missing is an error)."""
        if name not in self._backends:
            raise CitationError(f"no backend named {name!r} is registered")
        del self._backends[name]

    def get(self, name: str) -> CitationBackend:
        """The backend registered under *name*."""
        backend = self._backends.get(name)
        if backend is None:
            known = ", ".join(sorted(self._backends)) or "none"
            raise CitationError(f"unknown backend {name!r} (registered: {known})")
        return backend

    def route(self, request: CitationRequest) -> CitationBackend:
        """The backend that should serve *request*."""
        if request.backend is not None:
            return self.get(request.backend)
        for backend in self._backends.values():
            if backend.claims(request):
                return backend
        raise CitationError(
            f"no registered backend claims a {type(request.query).__name__} payload "
            f"with dialect {request.dialect!r}"
            + (" and an as_of pin" if request.as_of is not None else "")
        )

    def names(self) -> list[str]:
        return list(self._backends)

    def capabilities(self) -> dict[str, dict[str, Any]]:
        """Capability summaries of every registered backend."""
        return {name: b.capabilities().as_dict() for name, b in self._backends.items()}

    def __iter__(self) -> Iterator[CitationBackend]:
        return iter(self._backends.values())

    def __contains__(self, name: object) -> bool:
        return name in self._backends

    def __len__(self) -> int:
        return len(self._backends)
