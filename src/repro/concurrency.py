"""Concurrency primitives: worker-pool sizing, fork-based fan-out, and the
shared-state declarations for the concurrency lint.

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

This module deliberately imports nothing from the rest of the package except
the leaf :mod:`repro.errors` module, so any module — including the query
layer the analysis passes themselves import — can declare shared state
without an import cycle.
"""

from __future__ import annotations

import os
import pickle
import selectors
import signal
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, TypeVar

from .errors import DeadlineExceeded, WorkerCrashError

if TYPE_CHECKING:
    from .resilience.deadline import Deadline

_T = TypeVar("_T", bound=type)

#: Attribute set on decorated classes: ``{field_name: lock_attribute_name}``.
REGISTRY_ATTRIBUTE = "__shared_state__"

#: Upper bound on CPU-derived worker-pool defaults.  Worker threads here are
#: GIL-bound python work, so past a handful of workers more threads only add
#: contention; fork-based shard workers past this point thrash the page cache
#: long before they saturate a bigger machine.
MAX_DEFAULT_WORKERS = 8


def default_worker_count(cap: int = MAX_DEFAULT_WORKERS) -> int:
    """CPU-count-derived default size for worker pools, bounded to [2, cap].

    Both the :class:`~repro.service.service.CitationService` request pool and
    the evaluator's shard count (forked children per sharded evaluation)
    derive their default from this single function, so their combined
    footprint scales with the machine instead of oversubscribing it with
    unrelated hard-coded defaults.  The floor of 2 keeps batch deadlines
    meaningful (one straggler must not serialise a whole batch) even on
    single-core containers.
    """
    cpus = os.cpu_count() or 1
    return max(2, min(cap, cpus))


def fork_map_outcomes(
    fn: Callable, items: Sequence, deadline: Deadline | None = None
) -> list[tuple]:
    """Apply *fn* to every item in a forked child each; report per-item outcomes.

    The process-level escape hatch from the GIL for CPU-bound fan-out:
    children inherit the parent's heap copy-on-write, so arbitrarily large
    read-only inputs (relations, indexes, prelude snapshots) are shared for
    free, and only each call's **return value** travels back to the parent,
    pickled over a pipe.  ``fn`` may be a closure — it is never pickled,
    only called in the forked child, which has no other thread: ``fn`` must
    take no lock another thread may hold at the fork.

    Returns one ``(value, error)`` pair per item, in item order:
    ``(result, None)`` on success, ``(None, exception)`` otherwise.  A child
    that raises ships the **exception object itself** back (falling back to
    a ``RuntimeError`` of its ``repr`` when it does not pickle); a child
    that dies without writing a result — killed, OOM, ``os._exit`` — becomes
    a :class:`~repro.errors.WorkerCrashError`, which is *transient*: the
    input shard is intact in the parent, so callers can re-run it in-process
    (the evaluator's serial-retry degradation path).

    With a *deadline*, children still running when it expires are killed
    and reaped, and :class:`~repro.errors.DeadlineExceeded` is raised at the
    ``"shard"`` checkpoint.  POSIX only — callers gate on
    ``hasattr(os, "fork")``.
    """
    children: list[tuple[int, int]] = []
    for item in items:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: compute, ship the pickle, and _exit — never
            # return into the parent's stack (atexit/pytest hooks included).
            os.close(read_fd)
            status = 0
            try:
                payload = pickle.dumps((True, fn(item)), pickle.HIGHEST_PROTOCOL)
            except BaseException as error:  # noqa: BLE001 - crossing a process boundary
                status = 1
                try:
                    payload = pickle.dumps((False, error), pickle.HIGHEST_PROTOCOL)
                except Exception:
                    try:
                        payload = pickle.dumps(
                            (False, RuntimeError(repr(error))), pickle.HIGHEST_PROTOCOL
                        )
                    except Exception:
                        payload = b""
            try:
                with os.fdopen(write_fd, "wb") as sink:
                    sink.write(payload)
            except BaseException:
                status = 1
            finally:
                os._exit(status)
        os.close(write_fd)
        children.append((pid, read_fd))

    chunks: list[list[bytes]] = [[] for _ in children]
    with selectors.DefaultSelector() as selector:
        for index, (_pid, read_fd) in enumerate(children):
            selector.register(read_fd, selectors.EVENT_READ, index)
        while selector.get_map():
            events = selector.select(None if deadline is None else deadline.remaining())
            if not events and deadline is not None and deadline.expired():
                break
            for key, _mask in events:
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    chunks[key.data].append(chunk)
                else:  # EOF: the child closed its end (or died)
                    selector.unregister(key.fd)
                    os.close(key.fd)
        late = list(selector.get_map().values())
    for key in late:  # past the deadline; not yet reaped, so the pid is ours
        os.close(key.fd)
        os.kill(children[key.data][0], signal.SIGKILL)
    statuses = [os.waitpid(pid, 0)[1] for pid, _read_fd in children]
    if late:
        raise DeadlineExceeded("shard")

    outcomes: list[tuple] = []
    for (pid, _read_fd), parts, exit_status in zip(children, chunks, statuses):
        payload = b"".join(parts)
        if not payload:
            code = os.waitstatus_to_exitcode(exit_status)
            outcomes.append((None, WorkerCrashError(pid, code)))
            continue
        ok, value = pickle.loads(payload)
        if ok:
            outcomes.append((value, None))
        elif isinstance(value, BaseException):
            outcomes.append((None, value))
        else:
            outcomes.append((None, RuntimeError(str(value))))
    return outcomes


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
