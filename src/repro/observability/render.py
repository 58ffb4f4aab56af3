"""Rendering a trace tree as EXPLAIN ANALYZE text.

One request's trace *is* its annotated plan: the service spans carry cache
outcomes, the engine spans carry rewriting counts, the evaluation spans carry
answer counts, and the ``join.step`` annotation children carry per-step
measured cardinalities.  :func:`render_trace` draws the tree with
box-drawing connectors; ``join.step`` spans get a compact one-line
cardinality format::

    join.step[0] Family  rows=1500  scanned=8  out=5

Everything else prints ``name  duration  key=value ...`` with long values
elided, so the renderer stays useful for arbitrary spans.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.observability.tracer import TraceSpan

__all__ = ["render_trace"]

#: Attribute keys whose values may be long free text; elide past this length.
_ELIDE_AT = 72

#: The join.step keys its one-line format consumes, with their labels.
_STEP_LABELS = {"relation_rows": "rows", "rows_scanned": "scanned", "frames_out": "out"}


def _short(value: Any) -> str:
    if isinstance(value, float):
        text = f"{value:.4g}"
    else:
        text = str(value)
    if len(text) > _ELIDE_AT:
        text = text[: _ELIDE_AT - 1] + "…"
    return text


def _step_line(span: "TraceSpan") -> str:
    attrs = span.attributes
    parts = [f"join.step[{attrs.get('step', '?')}] {attrs.get('predicate', '?')}"]
    parts += [f"{label}={attrs[key]}" for key, label in _STEP_LABELS.items() if key in attrs]
    parts += [
        f"{key}={_short(value)}"
        for key, value in attrs.items()
        if key not in _STEP_LABELS and key not in ("step", "predicate")
    ]
    return "  ".join(parts)


def _span_line(span: "TraceSpan") -> str:
    if span.name == "join.step":
        return _step_line(span)
    parts = [span.name]
    ms = span.duration_ms
    if ms is not None:
        parts.append(f"{ms:.3f}ms")
    parts.extend(
        f"{key}={_short(value)}" for key, value in span.attributes.items()
    )
    return "  ".join(parts)


def render_trace(span: "TraceSpan") -> str:
    """The whole trace as an indented tree, one span per line."""
    lines: list[str] = []

    def walk(node: "TraceSpan", prefix: str, connector: str, child_prefix: str) -> None:
        lines.append(prefix + connector + _span_line(node))
        children = list(node.children)
        for position, child in enumerate(children):
            last = position == len(children) - 1
            walk(
                child,
                child_prefix,
                "└─ " if last else "├─ ",
                child_prefix + ("   " if last else "│  "),
            )

    walk(span, "", "", "")
    return "\n".join(lines)
