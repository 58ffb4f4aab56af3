"""Concurrency primitives: worker-pool sizing and the shared-state
declarations for the concurrency lint.

Classes whose instances are reached from more than one thread declare which
of their mutable fields are shared and which lock guards them:

.. code-block:: python

    @shared_state("_counters", "_histograms", lock="_lock")
    class ServiceMetrics:
        ...

The declaration does two things.  At runtime it is purely descriptive — it
records the mapping on ``cls.__shared_state__`` so tools and tests can
introspect it.  Statically, :mod:`repro.analysis.codelint` discovers the
decorator in the AST (without importing the code under analysis) and enforces
the contract: every mutation of a registered field must happen inside a
``with self.<lock>`` block (rule C001), and the class's locks must be
acquired in a consistent order (rule C002).

Two escape hatches keep the rule honest rather than noisy: ``__init__`` may
initialise registered fields before the object is published, and methods whose
name ends in ``_locked`` document that the caller already holds the lock.

This module deliberately imports nothing from the rest of the package, so
any module — including the query layer the analysis passes themselves
import — can declare shared state without an import cycle.
"""

from __future__ import annotations

import os
from typing import TypeVar

_T = TypeVar("_T", bound=type)

#: Attribute set on decorated classes: ``{field_name: lock_attribute_name}``.
REGISTRY_ATTRIBUTE = "__shared_state__"

#: Upper bound on CPU-derived worker-pool defaults.  Worker threads here are
#: GIL-bound python work, so past a handful of workers more threads only add
#: contention.
MAX_DEFAULT_WORKERS = 8


def default_worker_count(cap: int = MAX_DEFAULT_WORKERS) -> int:
    """CPU-count-derived default size for worker pools, bounded to [2, cap].

    The :class:`~repro.service.service.CitationService` request pool derives
    its default from this function.  The floor of 2 keeps batch deadlines
    meaningful (one straggler must not serialise a whole batch) even on
    single-core containers.
    """
    cpus = os.cpu_count() or 1
    return max(2, min(cap, cpus))


def shared_state(*fields: str, lock: str = "_lock"):
    """Class decorator declaring *fields* as shared state guarded by *lock*.

    ``lock`` names the instance attribute holding a ``threading.Lock`` (or
    ``RLock``).  The decorator may be applied more than once (e.g. different
    fields under different locks); declarations accumulate.
    """
    if not fields:
        raise ValueError("shared_state() needs at least one field name")
    for name in fields:
        if not isinstance(name, str) or not name:
            raise TypeError(f"shared-state field names must be non-empty strings, got {name!r}")

    def decorate(cls: _T) -> _T:
        registry = dict(getattr(cls, REGISTRY_ATTRIBUTE, {}))
        for name in fields:
            registry[name] = lock
        setattr(cls, REGISTRY_ATTRIBUTE, registry)
        return cls

    return decorate


def declared_shared_state(cls: type) -> dict[str, str]:
    """The accumulated ``{field: lock}`` declarations of *cls* (may be empty)."""
    return dict(getattr(cls, REGISTRY_ATTRIBUTE, {}))
