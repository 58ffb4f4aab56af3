"""E7 — citation evolution: incremental maintenance vs full recomputation.

The update stream mixes (a) updates to relations that the citation views do
not mention (the common case in a wide curated schema), (b) snippet-only
updates and (c) updates that change the query answer.  Every write goes
through the engine's database, and the maintained result is read after each
one.  The incremental maintainer should beat recompute-from-scratch, and by a
wide margin when most updates are irrelevant.  A second stream deletes
family introductions, so the views lose rows and the maintainer executes its
held plan again; it is reported against full recomputation, with no gate.

The statistics and timings land in ``BENCH_e7.json`` (see
:func:`benchmarks.conftest.record_json`).
"""

import time

from repro import CitationEngine, CitationPolicy, IncrementalCitationMaintainer
from repro.workloads import gtopdb
from benchmarks.conftest import record_json, report

UPDATES = 30
DELETES = 10


def _engine(families=150):
    db = gtopdb.generate(families=families, seed=7)
    return CitationEngine(
        db, gtopdb.citation_views(), policy=CitationPolicy.union_everywhere()
    )


def _update_stream(start_fid=50_000):
    """A mixed stream of inserts: 2/3 irrelevant, 1/3 answer-changing."""
    stream = []
    fid = start_fid
    for index in range(UPDATES):
        if index % 3 == 0:
            fid += 1
            stream.append(("insert", "Family", (fid, f"Incremental family {fid}", "d")))
            stream.append(("insert", "FamilyIntro", (fid, f"intro {fid}")))
        else:
            stream.append(("insert", "Ligand", (90_000 + index, f"L{index}", "peptide")))
    return stream


def _delete_stream(database):
    """The first ``DELETES`` family introductions of the instance, deleted."""
    rows = sorted(database.relation("FamilyIntro").rows)[:DELETES]
    return [("delete", "FamilyIntro", row) for row in rows]


def _run_stream(engine, stream, read) -> float:
    """Apply *stream* through the engine's database, calling *read* after
    every write; the elapsed milliseconds."""
    started = time.perf_counter()
    for write, relation, row in stream:
        getattr(engine.database, write)(relation, row)
        read()
    return (time.perf_counter() - started) * 1000.0


def _recompute(engine):
    engine.invalidate_caches()
    return engine.cite(gtopdb.paper_query())


def _maintained(stream_of):
    """A maintainer over a fresh engine, run through ``stream_of(database)``;
    the maintainer and the stream's milliseconds."""
    engine = _engine()
    maintainer = IncrementalCitationMaintainer(engine, gtopdb.paper_query())
    elapsed = _run_stream(engine, stream_of(engine.database), lambda: maintainer.result)
    return maintainer, elapsed


def _recomputed_ms(stream_of) -> float:
    """Milliseconds of ``stream_of(database)`` over a fresh engine, citing
    from scratch after every write."""
    engine = _engine()
    _recompute(engine)
    return _run_stream(engine, stream_of(engine.database), lambda: _recompute(engine))


def test_e7_incremental_maintenance(benchmark):
    maintainer, _elapsed = benchmark.pedantic(
        lambda: _maintained(lambda _db: _update_stream()), rounds=3, iterations=1
    )
    maintainer.check_consistency()


def test_e7_full_recomputation(benchmark):
    def run():
        engine = _engine()
        results = [_recompute(engine)]
        _run_stream(engine, _update_stream(), lambda: results.append(_recompute(engine)))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(results) == len(_update_stream()) + 1


def _row(stream: str, maintainer, maintained_ms: float, full_ms: float) -> dict:
    statistics = maintainer.statistics
    return {
        "stream": stream,
        "updates_seen": statistics.updates_seen,
        "updates_ignored": statistics.updates_ignored,
        "rows_recomputed": statistics.rows_recomputed,
        "rows_added": statistics.rows_added,
        "rows_removed": statistics.rows_removed,
        "full_recomputations": statistics.full_recomputations,
        "maintained_ms": round(maintained_ms, 2),
        "full_recomputation_ms": round(full_ms, 2),
    }


def test_e7_report(benchmark):
    maintainer, elapsed = benchmark.pedantic(
        lambda: _maintained(lambda _db: _update_stream()), rounds=1, iterations=1
    )
    statistics = maintainer.statistics
    rows = [_row("insert", maintainer, elapsed, _recomputed_ms(lambda _db: _update_stream()))]
    report("E7: incremental maintenance statistics over the update stream", rows)
    record_json("e7", rows)
    # Shape: most updates are absorbed without recomputation and the
    # maintainer never falls back to recomputing from scratch.
    assert statistics.updates_ignored >= statistics.updates_seen // 2
    assert statistics.full_recomputations == 1


def test_e7_delete_stream(benchmark):
    def run():
        maintainer, maintained_ms = _maintained(_delete_stream)
        return maintainer, maintained_ms, _recomputed_ms(_delete_stream)

    maintainer, maintained_ms, full_ms = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [_row("delete", maintainer, maintained_ms, full_ms)]
    report("E7: maintained result over a FamilyIntro delete stream", rows)
    record_json("e7", rows)
    maintainer.check_consistency()
