"""Command-line interface for the data-citation library.

Subcommands
-----------
``cite``      answer a query over a JSON database and print its citation
``batch``     serve a file of queries through the caching citation service
``serve``     line-oriented serving loop: queries on stdin, JSONL responses
``validate``  statically check a citation specification against a schema
``lint``      run the full static analyzer over a view set (and a workload):
              duplicate/shadowed views, coverage gaps, ambiguity, schema and
              policy problems, with stable diagnostic codes; ``--format
              json`` for machines, ``--strict`` to fail on warnings
``views``     list the citation views of a specification (or the defaults)
``explain``   show how the citation of a query is constructed
``demo``      run the paper's running example end to end

``cite``, ``batch``, ``serve`` and ``explain`` all run on the unified
request/response API (:mod:`repro.api`): every query becomes a
:class:`~repro.api.envelope.CitationRequest` routed through
:meth:`repro.service.CitationService.submit` to a registered backend, so
plan/result caching, within-batch deduplication and per-backend metrics apply
uniformly.  ``--backend`` selects the backend explicitly:

* ``auto`` (default) — single-rule Datalog and SQL ``SELECT`` go to the
  relational CQ backend; a multi-rule program (``;``-separated rules) goes to
  the union backend;
* ``relational`` / ``union`` — force the choice;
* ``temporal`` — cite over timestamp-parameterized views; ``--as-of ERA``
  restricts the citation to one era (requires relations carrying the
  timestamp attribute, see ``--timestamp-attribute``).

``cite``, ``batch`` and ``serve`` accept ``--stats`` to dump the service's
metrics snapshot (per-backend counters, evaluator strategy picks, cost-model
estimates and prelude-cache hit rates) to stderr on exit —
``--stats-format prometheus`` switches that dump to Prometheus text
exposition — and ``serve`` understands the ``.stats`` / ``.backends`` /
``.slowlog`` / ``.quit`` directives on stdin.  ``--trace-jsonl PATH``
enables request-scoped tracing and appends one JSON trace tree per request
to *PATH*; ``--slow-log N`` retains the N slowest request traces (surfaced
by ``--stats`` and the ``.slowlog`` directive).  ``explain`` prints the
static citation explanation followed by an EXPLAIN ANALYZE section: the
request is actually served with tracing forced on and the resulting span
tree — cache outcomes, strategy pick with cost estimate, per-join-step
estimated vs. measured cardinalities — is rendered; ``--warm`` serves the
request once beforehand so the explained run shows the warm-path behaviour
(plan-cache and semi-join prelude hits).  ``--strategy`` selects the join
executor on every data command; the default ``auto`` prices the semi-join
reduction with the statistics-driven cost model per query and data version.

The database file is the JSON format written by
:func:`repro.relational.csvio.dump_database_json`; the specification file is
the JSON format accepted by :func:`repro.core.spec.load_specification`.  When
no specification is supplied, default views are generated for the schema
(:func:`repro.core.spec.default_views_for_schema`).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from repro import __version__
from repro.api import CitationRequest, CitationResponse, TemporalBackend
from repro.core.engine import CitationEngine
from repro.core.explain import explain_citation
from repro.core.spec import (
    default_views_for_schema,
    dump_specification,
    load_specification,
    validate_views_against_schema,
)
from repro.core.policy import CitationPolicy
from repro.core.temporal import TIMESTAMP_ATTRIBUTE, TemporalCitationEngine, timestamp_view
from repro.errors import ReproError
from repro.observability import JsonlSink, SlowQueryLog, Tracer
from repro.query.evaluator import STRATEGIES
from repro.query.parser import parse_query
from repro.query.sql import parse_sql
from repro.relational.csvio import load_database_json
from repro.service import CitationService

BACKEND_CHOICES = ("auto", "relational", "union", "temporal")
STRATEGY_CHOICES = STRATEGIES


def _load_engine(args: argparse.Namespace) -> CitationEngine:
    database = load_database_json(args.database)
    if args.spec:
        views, policy = load_specification(args.spec, schema=database.schema)
    else:
        views = default_views_for_schema(database.schema, database_title=args.title)
        policy = CitationPolicy.default()
    return CitationEngine(
        database,
        views,
        policy=policy,
        on_no_rewriting="fallback",
        strategy=getattr(args, "strategy", "auto"),
    )


def _parse_user_query(text: str, engine: CitationEngine):
    stripped = text.strip()
    if stripped.lower().startswith("select"):
        return parse_sql(stripped, engine.database.schema)
    return parse_query(stripped)


def _temporal_engine(
    engine: CitationEngine, attribute: str
) -> TemporalCitationEngine:
    """A temporal engine over every relation carrying the timestamp attribute."""
    schema = engine.database.schema
    timestamped = [r.name for r in schema if r.has_attribute(attribute)]
    if not timestamped:
        raise ReproError(
            f"no relation carries the timestamp attribute {attribute!r}; "
            "the temporal backend needs a timestamped database "
            "(see repro.core.temporal.add_timestamps)"
        )
    views = [timestamp_view(name, schema, attribute=attribute) for name in timestamped]
    return TemporalCitationEngine(
        engine.database, views, policy=engine.policy, attribute=attribute
    )


def _wants_temporal(args: argparse.Namespace) -> bool:
    return args.backend == "temporal" or getattr(args, "as_of", None) is not None


def _make_tracer(args: argparse.Namespace) -> Tracer | None:
    """A tracer from the observability flags, or ``None`` (tracing off)."""
    trace_jsonl = getattr(args, "trace_jsonl", None)
    slow_log_size = getattr(args, "slow_log", None)
    if trace_jsonl is None and slow_log_size is None:
        return None
    sinks = [] if trace_jsonl is None else [JsonlSink(trace_jsonl)]
    slow_log = None if slow_log_size is None else SlowQueryLog(capacity=slow_log_size)
    return Tracer(sinks=sinks, slow_log=slow_log)


def _make_service(args: argparse.Namespace) -> CitationService:
    engine = _load_engine(args)

    def parse_user_query(query):
        """Datalog or SQL, with each parser's own error surfacing."""
        if isinstance(query, str):
            return _parse_user_query(query, engine)
        return query

    backends = []
    if _wants_temporal(args):
        backends.append(
            TemporalBackend(_temporal_engine(engine, args.timestamp_attribute))
        )
    return CitationService(
        engine,
        plan_cache_size=getattr(args, "plan_cache", 256),
        result_cache_size=getattr(args, "result_cache", 1024),
        max_workers=getattr(args, "workers", None),
        query_parser=parse_user_query,
        backends=backends,
        tracer=_make_tracer(args),
        max_inflight=getattr(args, "max_inflight", None),
        queue_depth=getattr(args, "queue_depth", 0),
    )


def _close_service(service: CitationService) -> None:
    service.close()
    for sink in service.tracer().sinks:
        close = getattr(sink, "close", None)
        if close is not None:
            close()


def _request_for(args: argparse.Namespace, text: str) -> CitationRequest:
    """Build the request envelope for one user query."""
    backend = None if args.backend == "auto" else args.backend
    as_of = getattr(args, "as_of", None)
    if as_of is not None and backend is None:
        backend = "temporal"
    return CitationRequest(
        query=text.strip(),
        backend=backend,
        mode=getattr(args, "mode", None),
        as_of=as_of,
        timeout=getattr(args, "request_timeout", None),
    )


def _response_line(response: CitationResponse) -> str:
    """One JSONL response for a served request."""
    return json.dumps(response.to_payload(), sort_keys=True)


def _emit_stats(service: CitationService, enabled: bool, fmt: str = "json") -> None:
    if not enabled:
        return
    if fmt == "prometheus":
        print(service.to_prometheus(), file=sys.stderr)
    else:
        print(json.dumps(service.stats(), indent=2, sort_keys=True), file=sys.stderr)


def _read_query_lines(path: str) -> list[str]:
    if path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        try:
            with open(path, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError as error:
            raise ReproError(f"cannot read query file {path!r}: {error}") from error
    return [
        line.strip()
        for line in lines
        if line.strip() and not line.lstrip().startswith("#")
    ]


def _cmd_cite(args: argparse.Namespace) -> int:
    service = _make_service(args)
    try:
        response = service.submit(_request_for(args, args.query))
        result = response.unwrap()
        citation = response.citation
        assert citation is not None
        if args.format == "text":
            print(citation.to_text(abbreviate_after=args.abbreviate))
        elif args.format == "bibtex":
            print(citation.to_bibtex())
        elif args.format == "ris":
            print(citation.to_ris())
        elif args.format == "xml":
            print(citation.to_xml())
        else:
            print(citation.to_json())
        if args.show_answers:
            rows = result.rows() if hasattr(result, "rows") else []
            print(f"\n# {len(rows)} answer tuple(s)", file=sys.stderr)
            for row in rows:
                print(f"#   {row}", file=sys.stderr)
        _emit_stats(service, args.stats, args.stats_format)
        return 0
    finally:
        _close_service(service)


def _cmd_batch(args: argparse.Namespace) -> int:
    service = _make_service(args)
    queries = _read_query_lines(args.queries)
    requests = [_request_for(args, query) for query in queries]
    responses = service.submit_batch(requests, timeout=args.timeout)
    failed = 0
    for response in responses:
        print(_response_line(response))
        failed += 0 if response.ok else 1
    _emit_stats(service, args.stats, args.stats_format)
    _close_service(service)
    return 0 if failed == 0 else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    service = _make_service(args)
    stream = sys.stdin
    for line in stream:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line == ".quit":
            break
        if line == ".stats":
            print(json.dumps(service.stats(), sort_keys=True), flush=True)
            continue
        if line == ".backends":
            print(json.dumps(service.capabilities(), sort_keys=True), flush=True)
            continue
        if line == ".slowlog":
            slow_log = service.tracer().slow_log
            entries = slow_log.snapshot() if slow_log is not None else []
            print(json.dumps(entries, sort_keys=True), flush=True)
            continue
        response = service.submit(_request_for(args, line))
        print(_response_line(response), flush=True)
    _emit_stats(service, args.stats, args.stats_format)
    _close_service(service)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    database = load_database_json(args.database)
    views, _policy = load_specification(args.spec)
    problems = validate_views_against_schema(views, database.schema)
    if problems:
        for problem in problems:
            print(f"ERROR: {problem}")
        return 1
    print(f"specification OK: {len(views)} view(s) match the schema")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import registered_rules
    from repro.analysis.diagnostics import AnalysisReport
    from repro.analysis.query_rules import analyze_query
    from repro.analysis.view_rules import analyze_view_set, analyze_workload_coverage

    if args.list_rules:
        for rule in registered_rules():
            print(f"{rule.code}  {rule.severity.value:<8}{rule.description}")
        return 0
    if args.code:
        from repro.analysis.codelint import lint_paths

        report = lint_paths(args.code)
        if args.format == "json":
            print(report.to_json(indent=2))
        else:
            print(report.to_text())
        if report.has_errors or (args.strict and report.has_warnings):
            return 1
        return 0
    if not args.database:
        raise ReproError("lint needs --database (or --list-rules, --code)")
    database = load_database_json(args.database)
    if args.spec:
        # Load without eager schema validation: schema mismatches should
        # surface as L001 diagnostics, not abort the lint run.
        views, policy = load_specification(args.spec)
    else:
        views = default_views_for_schema(database.schema, database_title=args.title)
        policy = CitationPolicy.default()

    report = AnalysisReport()
    report.extend(analyze_view_set(views, database.schema, policy))
    if args.workload:
        queries = []
        for line in _read_query_lines(args.workload):
            query = (
                parse_sql(line, database.schema)
                if line.lower().startswith("select")
                else parse_query(line)
            )
            queries.append(query)
            report.extend(analyze_query(query, database.schema).diagnostics)
        report.extend(analyze_workload_coverage(views, queries, database))

    if args.format == "json":
        print(report.to_json(indent=2))
    else:
        print(report.to_text())
    if report.has_errors or (args.strict and report.has_warnings):
        return 1
    return 0


def _cmd_views(args: argparse.Namespace) -> int:
    database = load_database_json(args.database)
    if args.spec:
        views, policy = load_specification(args.spec, schema=database.schema)
    else:
        views = default_views_for_schema(database.schema, database_title=args.title)
        policy = CitationPolicy.default()
    if args.as_json:
        print(json.dumps(dump_specification(views, policy), indent=2))
        return 0
    for view in views:
        kind = "parameterized" if view.is_parameterized else "unparameterized"
        print(f"{view.name} ({kind}): {view.query}")
        if view.description:
            print(f"    {view.description}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    service = _make_service(args)
    try:
        request = _request_for(args, args.query)
        backend = service.registry.route(request)
        parsed = backend.parse(request)
        key = backend.fingerprint(parsed, request)
        print(f"# backend: {backend.name}")
        print(f"# fingerprint: {key}")
        if backend.name == "union":
            for index, disjunct in enumerate(parsed.disjuncts):
                print(f"\n# disjunct {index}: {disjunct}")
                print(explain_citation(backend.engine, disjunct).to_text())
        else:
            print(explain_citation(backend.engine, parsed).to_text())
        if args.warm:
            service.submit(_request_for(args, args.query))
        report = service.explain(_request_for(args, args.query))
        print()
        print("# EXPLAIN ANALYZE" + (" (warmed)" if args.warm else ""))
        print(report.to_text())
        return 0 if report.ok else 1
    finally:
        _close_service(service)


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro.workloads import gtopdb

    database = gtopdb.paper_instance()
    engine = CitationEngine(database, gtopdb.citation_views())
    result = engine.cite(gtopdb.paper_query())
    print("Query:", gtopdb.paper_query())
    for tuple_citation in result.tuple_citations:
        print(f"  {tuple_citation.row}: {tuple_citation.expression}")
    print()
    print(result.citation.to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",  # matches the [project.scripts] console-script name
        description="Fine-grained, view-based data citation (PODS 2017 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
        return value

    def add_common(sub: argparse.ArgumentParser, needs_spec: bool = False) -> None:
        sub.add_argument("--database", required=True, help="database JSON file")
        if needs_spec:
            sub.add_argument("--spec", required=True, help="citation specification JSON file")
        else:
            sub.add_argument("--spec", help="citation specification JSON file (optional)")
        sub.add_argument(
            "--title", default="Cited database", help="database title used by default views"
        )
        sub.add_argument(
            "--strategy", choices=STRATEGY_CHOICES, default="auto",
            help="join execution strategy: auto prices the semi-join "
            "reduction with the statistics-driven cost model (and always "
            "reuses a warm prelude), program/reduced force one executor",
        )
        sub.add_argument(
            "--workers", type=positive_int, default=None,
            help="size of the service request pool (default: bounded "
            "CPU-derived)",
        )

    def add_observability_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--trace-jsonl", metavar="PATH", default=None,
            help="enable request tracing and append one JSON trace tree "
            "per request to this file",
        )
        sub.add_argument(
            "--slow-log", type=positive_int, metavar="N", default=None,
            help="enable request tracing and retain the N slowest request "
            "traces (shown by --stats and the serve .slowlog directive)",
        )

    def add_resilience_options(
        sub: argparse.ArgumentParser, request_timeout: bool = True
    ) -> None:
        if request_timeout:
            sub.add_argument(
                "--timeout", dest="request_timeout", type=float, default=None,
                metavar="SECONDS",
                help="per-request deadline: evaluation past it is "
                "cooperatively cancelled and answered with a typed "
                "DEADLINE_EXCEEDED error",
            )
        sub.add_argument(
            "--max-inflight", type=positive_int, default=None,
            help="admission control: max concurrently executing requests "
            "(default: unbounded, admission control off)",
        )
        sub.add_argument(
            "--queue-depth", type=int, default=0,
            help="admission control: requests allowed to wait for a slot "
            "beyond --max-inflight before shedding (default: 0)",
        )

    def add_backend_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--backend", choices=BACKEND_CHOICES, default="auto",
            help="citation backend (auto routes by query shape)",
        )
        sub.add_argument(
            "--as-of", dest="as_of", default=None,
            help="era value for the temporal backend (implies --backend temporal)",
        )
        sub.add_argument(
            "--timestamp-attribute", default=TIMESTAMP_ATTRIBUTE,
            help="timestamp attribute of temporal relations",
        )

    cite = subparsers.add_parser("cite", help="cite a query result")
    add_common(cite)
    add_backend_options(cite)
    cite.add_argument("query", help="Datalog-style query, multi-rule union program, or SELECT statement")
    cite.add_argument("--mode", choices=["formal", "economical"], default="economical")
    cite.add_argument(
        "--format", choices=["text", "bibtex", "ris", "xml", "json"], default="text"
    )
    cite.add_argument("--abbreviate", type=int, default=None, help="'et al.' after N names")
    cite.add_argument("--show-answers", action="store_true", help="print answers to stderr")
    cite.add_argument(
        "--stats", action="store_true",
        help="dump service metrics (incl. strategy picks, cost-model "
        "estimates and prelude-cache rates) to stderr on exit",
    )
    cite.add_argument(
        "--stats-format", choices=["json", "prometheus"], default="json",
        help="--stats output format: a JSON snapshot or Prometheus text exposition",
    )
    add_observability_options(cite)
    add_resilience_options(cite)
    cite.set_defaults(func=_cmd_cite)

    def add_service_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--mode", choices=["formal", "economical"], default="economical")
        sub.add_argument(
            "--plan-cache", type=positive_int, default=256,
            help="compiled-plan cache capacity",
        )
        sub.add_argument(
            "--result-cache", type=positive_int, default=1024,
            help="result cache capacity",
        )
        sub.add_argument(
            "--stats", action="store_true", help="dump service metrics to stderr on exit"
        )
        sub.add_argument(
            "--stats-format", choices=["json", "prometheus"], default="json",
            help="--stats output format: a JSON snapshot or Prometheus text exposition",
        )
        add_observability_options(sub)

    batch = subparsers.add_parser(
        "batch", help="serve a file of queries (one per line, '-' for stdin)"
    )
    add_common(batch)
    add_backend_options(batch)
    add_service_options(batch)
    batch.add_argument("queries", help="file with one query per line, or '-' for stdin")
    batch.add_argument(
        "--timeout", type=float, default=None,
        help="batch response deadline in seconds (also propagated into "
        "workers as a cooperative cancellation deadline)",
    )
    add_resilience_options(batch, request_timeout=False)
    batch.set_defaults(func=_cmd_batch)

    serve = subparsers.add_parser(
        "serve",
        help="read queries from stdin, answer as JSONL "
        "(.stats/.backends/.slowlog/.quit directives)",
    )
    add_common(serve)
    add_backend_options(serve)
    add_service_options(serve)
    add_resilience_options(serve)
    serve.set_defaults(func=_cmd_serve)

    validate = subparsers.add_parser("validate", help="validate a specification against a schema")
    add_common(validate, needs_spec=True)
    validate.set_defaults(func=_cmd_validate)

    lint = subparsers.add_parser(
        "lint",
        help="statically analyse a view set (and optionally a workload): "
        "duplicate/shadowed views, coverage gaps, schema and policy problems",
    )
    lint.add_argument("--database", help="database JSON file")
    lint.add_argument("--spec", help="citation specification JSON file (optional)")
    lint.add_argument(
        "--title", default="Cited database", help="database title used by default views"
    )
    lint.add_argument(
        "--workload", metavar="FILE", default=None,
        help="file of expected queries (one per line, '-' for stdin): adds "
        "per-query diagnostics plus coverage/ambiguity/dead-view checks",
    )
    lint.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="diagnostic output format",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="exit nonzero on warnings too (default: errors only)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print every registered diagnostic code and exit",
    )
    lint.add_argument(
        "--code", metavar="PATH", nargs="+", default=None,
        help="lint Python source for concurrency contract violations "
        "(C-codes) instead of a view set; PATH is a file or directory",
    )
    lint.set_defaults(func=_cmd_lint)

    views = subparsers.add_parser("views", help="list citation views (or generated defaults)")
    add_common(views)
    views.add_argument("--as-json", action="store_true", help="dump as a specification JSON")
    views.set_defaults(func=_cmd_views)

    explain = subparsers.add_parser(
        "explain",
        help="explain how a citation is constructed (incl. EXPLAIN ANALYZE trace)",
    )
    add_common(explain)
    add_backend_options(explain)
    explain.add_argument("query", help="Datalog-style query, multi-rule union program, or SELECT statement")
    explain.add_argument(
        "--warm", action="store_true",
        help="serve the request once before explaining, so the trace shows "
        "the warm path (plan-cache and semi-join prelude hits)",
    )
    explain.set_defaults(func=_cmd_explain)

    demo = subparsers.add_parser("demo", help="run the paper's running example")
    demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
