"""Self-contained HTML dashboard for one SLO-monitored run.

:func:`render_dashboard` turns a finished run (a
:class:`~repro.bench.harness.RunResult` carrying a live
:class:`~repro.obs.slo.SloEngine`) into a single HTML file with inline
SVG — no JavaScript, no external assets, openable from a CI artifact
tab. It shows, top to bottom:

* the scalar SLO verdict and the fault-correlation table (MTTD/MTTR
  per injected fault window, misses called out);
* one timeline per SLO objective — the windowed metric value against
  its armed threshold, incident spans shaded red, injector
  ground-truth fault windows shaded gray;
* the committed-throughput timeline, bucketed on the engine's window;
* admission-queue depth per site, when the run sampled the open-loop
  probes (``repro bench --open-loop`` with observability on);
* the incident and invariant ledgers in full.

Determinism: the document is a pure function of the run — it embeds no
wall-clock timestamps, so re-rendering the same run yields an
identical file (the determinism guard in
``tests/test_determinism_guard.py`` covers this module too).
"""

from __future__ import annotations

import html
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["render_dashboard", "write_dashboard"]

#: Chart geometry (pixels). Left gutter holds the y-axis labels.
WIDTH = 860
HEIGHT = 120
PAD_LEFT = 62
PAD_RIGHT = 10
PAD_TOP = 8
PAD_BOTTOM = 18

_CSS = """
body { font: 13px/1.45 system-ui, sans-serif; margin: 24px auto;
       max-width: 920px; color: #1a1a2e; }
h1 { font-size: 20px; } h2 { font-size: 15px; margin-top: 28px; }
table { border-collapse: collapse; margin: 8px 0; }
th, td { border: 1px solid #ccd; padding: 3px 9px; text-align: left;
         font-variant-numeric: tabular-nums; }
th { background: #eef; }
td.num { text-align: right; }
.miss { color: #b00020; font-weight: 600; }
.ok { color: #1b7a2f; }
svg { display: block; margin: 4px 0 14px; background: #fbfbfe;
      border: 1px solid #dde; }
.meta { color: #667; }
"""


def _fmt(value, digits: int = 2) -> str:
    """Render a cell: floats compactly, None as a dash."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:,.{digits}f}"
    return str(value)


def _scale(value: float, lo: float, hi: float, out_lo: float,
           out_hi: float) -> float:
    if hi <= lo:
        return out_lo
    return out_lo + (value - lo) / (hi - lo) * (out_hi - out_lo)


def _series_svg(
    points: Sequence[Tuple[float, Optional[float]]],
    *,
    x_range: Tuple[float, float],
    threshold: Optional[float] = None,
    incident_spans: Sequence[Tuple[float, float]] = (),
    fault_spans: Sequence[Tuple[float, float]] = (),
    unit: str = "",
) -> str:
    """One timeline chart as an ``<svg>`` string.

    ``points`` are (time_ms, value) pairs; None values (windows with no
    data) break the polyline. Spans are [start_ms, end_ms) intervals
    shaded behind the series.
    """
    x0, x1 = x_range
    values = [v for _, v in points if v is not None]
    y_max = max(values + ([threshold] if threshold is not None else []),
                default=1.0)
    y_max = y_max * 1.1 or 1.0
    plot_l, plot_r = PAD_LEFT, WIDTH - PAD_RIGHT
    plot_t, plot_b = PAD_TOP, HEIGHT - PAD_BOTTOM

    def sx(t: float) -> float:
        return _scale(t, x0, x1, plot_l, plot_r)

    def sy(v: float) -> float:
        return _scale(v, 0.0, y_max, plot_b, plot_t)

    parts = [f'<svg viewBox="0 0 {WIDTH} {HEIGHT}" width="{WIDTH}" '
             f'height="{HEIGHT}" role="img">']
    for start, end in fault_spans:
        parts.append(
            f'<rect x="{sx(start):.1f}" y="{plot_t}" '
            f'width="{max(1.0, sx(end) - sx(start)):.1f}" '
            f'height="{plot_b - plot_t}" fill="#99a" opacity="0.25"/>'
        )
    for start, end in incident_spans:
        parts.append(
            f'<rect x="{sx(start):.1f}" y="{plot_t}" '
            f'width="{max(1.0, sx(end) - sx(start)):.1f}" '
            f'height="{plot_b - plot_t}" fill="#d33" opacity="0.22"/>'
        )
    # Axes and y labels (0 and max).
    parts.append(f'<line x1="{plot_l}" y1="{plot_b}" x2="{plot_r}" '
                 f'y2="{plot_b}" stroke="#99a"/>')
    parts.append(f'<line x1="{plot_l}" y1="{plot_t}" x2="{plot_l}" '
                 f'y2="{plot_b}" stroke="#99a"/>')
    parts.append(f'<text x="{plot_l - 4}" y="{plot_b}" text-anchor="end" '
                 f'font-size="10" fill="#667">0</text>')
    parts.append(f'<text x="{plot_l - 4}" y="{plot_t + 8}" text-anchor="end" '
                 f'font-size="10" fill="#667">'
                 f'{html.escape(f"{y_max:,.3g}{unit}")}</text>')
    parts.append(f'<text x="{plot_r}" y="{HEIGHT - 4}" text-anchor="end" '
                 f'font-size="10" fill="#667">{x1:,.0f} ms</text>')
    if threshold is not None:
        y = sy(threshold)
        parts.append(f'<line x1="{plot_l}" y1="{y:.1f}" x2="{plot_r}" '
                     f'y2="{y:.1f}" stroke="#b00020" stroke-width="1" '
                     f'stroke-dasharray="5,4"/>')
    # Polyline segments, broken at empty windows.
    segment: List[str] = []
    segments: List[List[str]] = []
    for t, v in points:
        if v is None:
            if segment:
                segments.append(segment)
            segment = []
            continue
        segment.append(f"{sx(t):.1f},{sy(v):.1f}")
    if segment:
        segments.append(segment)
    for seg in segments:
        if len(seg) == 1:
            x, y = seg[0].split(",")
            parts.append(f'<circle cx="{x}" cy="{y}" r="2" fill="#1547b0"/>')
        else:
            parts.append(f'<polyline points="{" ".join(seg)}" fill="none" '
                         f'stroke="#1547b0" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "".join(parts)


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]],
           numeric: Sequence[int] = ()) -> str:
    out = ["<table><tr>"]
    out += [f"<th>{html.escape(str(h))}</th>" for h in headers]
    out.append("</tr>")
    for row in rows:
        out.append("<tr>")
        for index, cell in enumerate(row):
            css = ' class="num"' if index in numeric else ""
            out.append(f"<td{css}>{html.escape(str(cell))}</td>")
        out.append("</tr>")
    out.append("</table>")
    return "".join(out)


def _incident_spans(incidents, run_end: float,
                    objective: Optional[str] = None):
    return [
        (inc.onset_ms, inc.clear_ms if inc.clear_ms is not None else run_end)
        for inc in incidents
        if objective is None or inc.objective == objective
    ]


def render_dashboard(result, *, title: Optional[str] = None) -> str:
    """Render ``result`` (an SLO-monitored run) as a standalone HTML page."""
    slo = result.slo
    if slo is None:
        raise ValueError(
            "render_dashboard needs a RunResult with a live SloEngine "
            "(run with slo=SloEngine())"
        )
    run_end = slo.run_end_ms or getattr(result, "duration_ms", 0.0)
    x_range = (slo.warmup_ms, run_end)
    fault_spans = [(span["start_ms"], min(span["end_ms"], run_end))
                   for span in slo.correlation]
    summary = slo.summary()
    name = title or (f"{getattr(result, 'system_name', 'run')} / "
                     f"{getattr(result, 'workload_name', '')}")

    doc = ["<!DOCTYPE html><html><head><meta charset='utf-8'>",
           f"<title>{html.escape(name)} — SLO dashboard</title>",
           f"<style>{_CSS}</style></head><body>",
           f"<h1>SLO dashboard — {html.escape(name)}</h1>",
           f"<p class='meta'>window {slo.window_ms:g} ms · "
           f"{int(summary['windows_evaluated'])} windows evaluated · "
           f"run end {run_end:,.0f} ms (simulated)</p>"]

    # -- verdict -----------------------------------------------------------
    doc.append("<h2>Verdict</h2>")
    doc.append(_table(
        ["SLO incidents", "invariant violations", "true positives",
         "false positives", "fault spans detected", "MTTD (ms)", "MTTR (ms)"],
        [[int(summary["incidents"]), int(summary["violations"]),
          int(summary["true_positives"]), int(summary["false_positives"]),
          f"{int(summary['detected_spans'])} / {int(summary['fault_spans'])}",
          "n/a" if summary["mttd_mean_ms"] < 0 else _fmt(summary["mttd_mean_ms"], 0),
          "n/a" if summary["mttr_mean_ms"] < 0 else _fmt(summary["mttr_mean_ms"], 0),
          ]],
        numeric=range(7),
    ))

    # -- fault correlation -------------------------------------------------
    if slo.correlation:
        doc.append("<h2>Fault correlation (injector ground truth)</h2>")
        rows = []
        for span in slo.correlation:
            detected = ("<span class='ok'>detected</span>" if span["detected"]
                        else "<span class='miss'>MISS</span>")
            rows.append([
                f"[{span['start_ms']:,.0f}, {span['end_ms']:,.0f})",
                ",".join(span["kinds"]), ",".join(map(str, span["sites"])),
                detected,
                _fmt(span["detection_ms"], 0), _fmt(span["recovery_ms"], 0),
                ", ".join(sorted(set(span["incidents"]))) or "-",
            ])
        # Detected/MISS cells carry markup; build this table by hand.
        out = ["<table><tr>"]
        for header in ("fault window", "kinds", "sites", "status",
                       "MTTD ms", "MTTR ms", "incidents"):
            out.append(f"<th>{header}</th>")
        out.append("</tr>")
        for row in rows:
            out.append("<tr>")
            for index, cell in enumerate(row):
                text = cell if index == 3 else html.escape(str(cell))
                out.append(f"<td>{text}</td>")
            out.append("</tr>")
        out.append("</table>")
        doc.append("".join(out))

    # -- objective timelines -----------------------------------------------
    doc.append("<h2>Objective timelines</h2>")
    doc.append("<p class='meta'>blue: windowed value · dashed red: armed "
               "threshold · red shade: incident · gray shade: injected "
               "fault window</p>")
    series = slo.window_series()
    incidents = slo.incidents
    for state_row in slo.objective_rows():
        objective = state_row["objective"]
        windows = series.get(objective, [])
        points = [(start + slo.window_ms, value)
                  for start, value, _thr, _n, _b in windows]
        doc.append(f"<h2>{html.escape(objective)} "
                   f"<small class='meta'>({state_row['metric']}, "
                   f"{state_row['bound']} bound, "
                   f"{state_row['incidents']} incidents)</small></h2>")
        doc.append(_series_svg(
            points,
            x_range=x_range,
            threshold=state_row["threshold"],
            incident_spans=_incident_spans(incidents, run_end, objective),
            fault_spans=fault_spans,
        ))

    # -- throughput --------------------------------------------------------
    metrics = getattr(result, "metrics", None)
    commit_times = getattr(metrics, "commit_times", None) if metrics else None
    if commit_times:
        doc.append("<h2>Committed throughput "
                   "<small class='meta'>(txn/s per window)</small></h2>")
        bucket = slo.window_ms
        start0 = slo.warmup_ms
        buckets: Dict[int, int] = {}
        for when in commit_times:
            if when >= start0:
                buckets[int((when - start0) // bucket)] = (
                    buckets.get(int((when - start0) // bucket), 0) + 1
                )
        last = int(max(0.0, run_end - start0) // bucket)
        points = [
            (start0 + (index + 1) * bucket,
             buckets.get(index, 0) / (bucket / 1000.0))
            for index in range(last + 1)
        ]
        doc.append(_series_svg(points, x_range=x_range,
                               fault_spans=fault_spans, unit=" tps"))

    # -- admission queues --------------------------------------------------
    timelines = getattr(result, "timelines", None) or {}
    depth_lines = sorted(
        (name, timeline) for name, timeline in timelines.items()
        if name.startswith("admission_depth.")
    )
    if depth_lines:
        doc.append("<h2>Admission-queue depth "
                   "<small class='meta'>(open-loop, per site)</small></h2>")
        for name, timeline in depth_lines:
            doc.append(f"<h2><small class='meta'>"
                       f"{html.escape(name)}</small></h2>")
            doc.append(_series_svg(list(timeline.samples), x_range=x_range,
                                   fault_spans=fault_spans))

    # -- ledgers -----------------------------------------------------------
    episodes = list(incidents) + list(slo.violations)
    doc.append("<h2>Incident ledger</h2>")
    if episodes:
        doc.append(_table(
            ["kind", "objective", "onset ms", "clear ms", "threshold",
             "peak", "severity", "blamed sites", "detail"],
            [[inc.kind, inc.objective, _fmt(inc.onset_ms, 0),
              "open" if inc.clear_ms is None else _fmt(inc.clear_ms, 0),
              _fmt(inc.threshold, 3), _fmt(inc.peak_value, 3),
              _fmt(inc.peak_severity, 2),
              ",".join(str(s) for s in inc.blamed_sites) or "-",
              inc.detail or ""]
             for inc in episodes],
            numeric=(2, 3, 4, 5, 6),
        ))
    else:
        doc.append("<p class='ok'>No incidents and no invariant "
                   "violations.</p>")

    doc.append("</body></html>")
    return "".join(doc)


def write_dashboard(result, path: str, *, title: Optional[str] = None) -> None:
    with open(path, "w") as handle:
        handle.write(render_dashboard(result, title=title))
