"""Reports: the static HTML run report and the ``repro top`` frame.

``repro report --html`` renders the whole recorded trajectory into one
self-contained page (stdlib only, inline SVG) — no javascript, no
external assets, open it from the filesystem:

* training loss curves (per-epoch series of the recent train runs);
* per-design R² table from the latest evaluated training runs;
* prediction quality: endpoint accuracy of the latest evaluated run
  plus the shadow-audit slack-error trend (repro.obs.quality);
* the paper's Figure-4 view: predicted-vs-true endpoint slack scatter
  from the latest timing-GNN run that sampled one.

:func:`render_top` draws one ``repro top`` terminal dashboard frame
from a live server's ``/stats`` + ``/healthz`` pair.
"""

from __future__ import annotations

import html

from .runs import default_ledger

__all__ = ["render_html_report", "write_html_report", "render_top"]

_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em;
       max-width: 70em; color: #1b1f23; }
h1 { border-bottom: 2px solid #d0d7de; padding-bottom: .3em; }
h2 { margin-top: 2em; color: #24292f; }
table { border-collapse: collapse; margin: 1em 0; font-size: .9em; }
th, td { border: 1px solid #d0d7de; padding: .35em .7em; text-align: right; }
th { background: #f6f8fa; }
td.l, th.l { text-align: left; font-family: ui-monospace, monospace; }
svg { background: #fff; border: 1px solid #d0d7de; margin: .5em 0; }
.note { color: #57606a; font-size: .85em; }
"""

_PALETTE = ("#0969da", "#cf222e", "#1a7f37", "#9a6700", "#8250df",
            "#bf3989", "#1b7c83", "#57606a")


def _fmt(value, digits=4):
    if value is None:
        return "—"
    try:
        value = float(value)
    except (TypeError, ValueError):
        return html.escape(str(value))
    if value != value:                 # NaN
        return "NaN"
    return f"{value:.{digits}g}"


def _finite_points(xs, ys):
    points = []
    for x, y in zip(xs, ys):
        try:
            x, y = float(x), float(y)
        except (TypeError, ValueError):
            continue
        if x == x and y == y and abs(x) != float("inf") \
                and abs(y) != float("inf"):
            points.append((x, y))
    return points


def _axes(points, pad=0.05):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    dx = (x1 - x0) or 1.0
    dy = (y1 - y0) or 1.0
    return x0 - dx * pad, x1 + dx * pad, y0 - dy * pad, y1 + dy * pad


class _Chart:
    """Tiny inline-SVG chart builder (line or scatter series)."""

    def __init__(self, width=560, height=280, margin=45):
        self.width, self.height, self.margin = width, height, margin
        self.series = []               # (label, points, kind)

    def add(self, label, xs, ys, kind="line"):
        points = _finite_points(xs, ys)
        if points:
            self.series.append((str(label), points, kind))
        return self

    def _scale(self):
        everything = [p for _l, pts, _k in self.series for p in pts]
        x0, x1, y0, y1 = _axes(everything)
        w = self.width - 2 * self.margin
        h = self.height - 2 * self.margin

        def to_px(x, y):
            px = self.margin + (x - x0) / (x1 - x0) * w
            py = self.height - self.margin - (y - y0) / (y1 - y0) * h
            return round(px, 1), round(py, 1)

        return (x0, x1, y0, y1), to_px

    def svg(self, title="", diagonal=False, x_label="", y_label=""):
        if not self.series:
            return "<p class='note'>no data recorded yet</p>"
        (x0, x1, y0, y1), to_px = self._scale()
        parts = [f"<svg width='{self.width}' height='{self.height}' "
                 f"viewBox='0 0 {self.width} {self.height}' "
                 f"role='img' aria-label='{html.escape(title)}'>"]
        ax0, ay0 = to_px(x0, y0)
        ax1, ay1 = to_px(x1, y1)
        parts.append(f"<rect x='{ax0}' y='{ay1}' width='{ax1 - ax0}' "
                     f"height='{ay0 - ay1}' fill='none' stroke='#d0d7de'/>")
        for frac in (0.0, 0.5, 1.0):
            xv = x0 + (x1 - x0) * frac
            yv = y0 + (y1 - y0) * frac
            px, _ = to_px(xv, y0)
            _, py = to_px(x0, yv)
            parts.append(f"<text x='{px}' y='{ay0 + 16}' font-size='10' "
                         f"text-anchor='middle'>{_fmt(xv, 3)}</text>")
            parts.append(f"<text x='{ax0 - 5}' y='{py + 3}' font-size='10' "
                         f"text-anchor='end'>{_fmt(yv, 3)}</text>")
        if title:
            parts.append(f"<text x='{self.width / 2}' y='16' font-size='12' "
                         f"text-anchor='middle' font-weight='bold'>"
                         f"{html.escape(title)}</text>")
        if x_label:
            parts.append(f"<text x='{self.width / 2}' "
                         f"y='{self.height - 4}' font-size='10' "
                         f"text-anchor='middle'>{html.escape(x_label)}</text>")
        if y_label:
            parts.append(f"<text x='12' y='{self.height / 2}' font-size='10' "
                         f"text-anchor='middle' transform='rotate(-90 12 "
                         f"{self.height / 2})'>{html.escape(y_label)}</text>")
        if diagonal:
            lo, hi = max(x0, y0), min(x1, y1)
            if hi > lo:
                p0, p1 = to_px(lo, lo), to_px(hi, hi)
                parts.append(f"<line x1='{p0[0]}' y1='{p0[1]}' "
                             f"x2='{p1[0]}' y2='{p1[1]}' stroke='#57606a' "
                             f"stroke-dasharray='4,3'/>")
        for i, (label, points, kind) in enumerate(self.series):
            color = _PALETTE[i % len(_PALETTE)]
            pixels = [to_px(x, y) for x, y in points]
            if kind == "line" and len(pixels) > 1:
                path = " ".join(f"{x},{y}" for x, y in pixels)
                parts.append(f"<polyline points='{path}' fill='none' "
                             f"stroke='{color}' stroke-width='1.5'/>")
            else:
                for x, y in pixels:
                    parts.append(f"<circle cx='{x}' cy='{y}' r='2.2' "
                                 f"fill='{color}' fill-opacity='0.65'/>")
            ly = 28 + 14 * i
            parts.append(f"<rect x='{self.width - 180}' y='{ly - 8}' "
                         f"width='10' height='10' fill='{color}'/>")
            parts.append(f"<text x='{self.width - 165}' y='{ly}' "
                         f"font-size='10'>{html.escape(label[:28])}</text>")
        parts.append("</svg>")
        return "".join(parts)


def _training_section(train_runs):
    out = ["<h2>Training runs</h2>"]
    if not train_runs:
        out.append("<p class='note'>no training runs recorded — run "
                   "<code>repro train</code> first</p>")
        return out
    recent = train_runs[-8:]
    chart = _Chart()
    for record in recent:
        loss = record.get("loss") or []
        chart.add(record.get("run_id", "?"),
                  list(range(1, len(loss) + 1)), loss)
    out.append(chart.svg(title="per-epoch training loss",
                         x_label="epoch", y_label="loss"))
    out.append("<table><tr><th class='l'>run</th><th class='l'>kind</th>"
               "<th class='l'>backend</th><th>epochs</th>"
               "<th>wall s</th><th>final loss</th></tr>")
    for record in reversed(recent):
        loss = record.get("loss") or []
        out.append(
            "<tr>"
            f"<td class='l'>{html.escape(str(record.get('run_id', '?')))}</td>"
            f"<td class='l'>{html.escape(str(record.get('kind', '?')))}</td>"
            f"<td class='l'>{html.escape(str(record.get('backend', '—')))}</td>"
            f"<td>{len(loss)}</td>"
            f"<td>{_fmt(record.get('wall_time_s'), 3)}</td>"
            f"<td>{_fmt(loss[-1] if loss else None)}</td></tr>")
    out.append("</table>")
    return out


def _r2_section(train_runs):
    out = ["<h2>Per-design R²</h2>"]
    evaluated = [r for r in train_runs if r.get("eval")]
    if not evaluated:
        out.append("<p class='note'>no evaluated runs yet</p>")
        return out
    record = evaluated[-1]
    evals = record["eval"]
    metrics = sorted({m for scores in evals.values()
                      for m in scores if m.endswith("_r2")})
    out.append(f"<p class='note'>latest evaluated run: "
               f"<code>{html.escape(str(record.get('run_id')))}</code></p>")
    out.append("<table><tr><th class='l'>design</th>"
               + "".join(f"<th>{html.escape(m[:-3])}</th>" for m in metrics)
               + "</tr>")
    for design in sorted(evals):
        cells = "".join(f"<td>{_fmt(evals[design].get(m))}</td>"
                        for m in metrics)
        out.append(f"<tr><td class='l'>{html.escape(design)}</td>"
                   f"{cells}</tr>")
    out.append("</table>")
    return out


def _figure4_section(train_runs):
    out = ["<h2>Slack scatter (paper Figure 4)</h2>"]
    with_scatter = [r for r in train_runs if r.get("slack_scatter")]
    if not with_scatter:
        out.append("<p class='note'>no slack scatter sampled yet — "
                   "recorded by timing-GNN training runs</p>")
        return out
    record = with_scatter[-1]
    scatter = record["slack_scatter"]
    chart = _Chart(width=420, height=420)
    chart.add(scatter.get("design", "endpoints"),
              scatter.get("true") or [], scatter.get("pred") or [],
              kind="scatter")
    out.append(f"<p class='note'>run "
               f"<code>{html.escape(str(record.get('run_id')))}</code>, "
               f"{len(scatter.get('true') or [])} sampled endpoints</p>")
    out.append(chart.svg(title="predicted vs ground-truth slack (ns)",
                         diagonal=True, x_label="true slack",
                         y_label="predicted slack"))
    return out


def _quality_section(train_runs, audit_log=None):
    out = ["<h2>Prediction quality</h2>"]
    # Endpoint accuracy of the latest evaluated training run: the same
    # numbers the online shadow auditor computes (repro.ml.endpoint_metrics).
    evaluated = [r for r in train_runs
                 if any("endpoint" in scores
                        for scores in (r.get("eval") or {}).values())]
    if evaluated:
        record = evaluated[-1]
        evals = record["eval"]
        out.append(f"<p class='note'>endpoint accuracy of run "
                   f"<code>{html.escape(str(record.get('run_id')))}</code> "
                   f"(identical to the online audit metrics)</p>")
        out.append("<table><tr><th class='l'>design</th>"
                   "<th>slack MAE ps</th><th>WNS err ps</th>"
                   "<th>TNS err ps</th><th>rank ρ</th>"
                   "<th>top-k recall</th></tr>")
        for design in sorted(evals):
            ep = evals[design].get("endpoint") or {}
            out.append(
                "<tr>"
                f"<td class='l'>{html.escape(design)}</td>"
                f"<td>{_fmt(ep.get('slack_mae'))}</td>"
                f"<td>{_fmt(ep.get('wns_setup_err'))}</td>"
                f"<td>{_fmt(ep.get('tns_setup_err'))}</td>"
                f"<td>{_fmt(ep.get('rank_setup'))}</td>"
                f"<td>{_fmt(ep.get('recall_setup'))}</td></tr>")
        out.append("</table>")
    else:
        out.append("<p class='note'>no endpoint-evaluated training runs "
                   "yet — recorded by <code>repro train</code></p>")
    # Shadow-audit trend from the audit log (if one exists).
    if audit_log is None:
        from .quality import AuditLog
        audit_log = AuditLog()
    try:
        audits, corrupt = audit_log.scan()
    except OSError:
        audits, corrupt = [], 0
    if not audits:
        out.append("<p class='note'>no shadow audits recorded — serve "
                   "with <code>REPRO_AUDIT_RATE &gt; 0</code></p>")
        return out
    recent = audits[-500:]
    idx = list(range(1, len(recent) + 1))
    chart = _Chart()
    chart.add("slack MAE ps", idx,
              [r.get("slack_mae_ps") for r in recent])
    out.append(chart.svg(title="shadow-audit slack error trend",
                         x_label="audit #", y_label="MAE ps"))
    drifts = [r.get("drift_score") for r in recent
              if r.get("drift_score") is not None]
    last_drift = drifts[-1] if drifts else None
    note = (f"{len(audits)} audits in <code>"
            f"{html.escape(audit_log.path)}</code>")
    if last_drift is not None:
        note += f", latest drift score {_fmt(last_drift)}"
    if corrupt:
        note += f", {corrupt} corrupt lines skipped"
    out.append(f"<p class='note'>{note}</p>")
    return out


def render_html_report(ledger=None, title="repro run report"):
    """The whole ledger rendered as one self-contained HTML page."""
    ledger = ledger or default_ledger()
    records, corrupt = ledger.scan()
    train_runs = [r for r in records
                  if str(r.get("kind", "")).startswith("train")]
    body = [f"<h1>{html.escape(title)}</h1>",
            f"<p class='note'>ledger: <code>{html.escape(ledger.path)}</code>"
            f" — {len(records)} runs ({len(train_runs)} training), "
            f"{corrupt} corrupt lines skipped</p>"]
    body += _training_section(train_runs)
    body += _r2_section(train_runs)
    body += _quality_section(train_runs)
    body += _figure4_section(train_runs)
    return ("<!doctype html><html><head><meta charset='utf-8'>"
            f"<title>{html.escape(title)}</title>"
            f"<style>{_CSS}</style></head><body>"
            + "".join(body) + "</body></html>")


def write_html_report(path, ledger=None, title="repro run report"):
    """Render and write the report; returns ``path``."""
    page = render_html_report(ledger=ledger, title=title)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(page)
    return path


# -- `repro top` rendering -------------------------------------------------------
def _rate(current, previous, dt):
    if previous is None or not dt or dt <= 0:
        return 0.0
    return max(current - previous, 0) / dt


def render_top(stats, healthz=None, prev=None, dt=None, url=""):
    """One ``repro top`` dashboard frame as a plain string.

    ``stats``/``healthz`` are the JSON bodies of a live server;
    ``prev`` is the previous ``/stats`` sample and ``dt`` the seconds
    between them, used for the QPS delta.  Pure function: the CLI owns
    the ANSI clear/redraw loop, tests just assert on the text.
    """
    healthz = healthz or {}
    prev = prev or {}
    counts = stats.get("counts", {})
    latency = stats.get("latency", {})
    slo = healthz.get("slo") or {}

    qps = _rate(counts.get("requests", 0),
                prev.get("counts", {}).get("requests"), dt)
    lines = [
        f"repro top — {url or 'server'}   "
        f"uptime {stats.get('uptime_s', 0):.0f}s   "
        f"status {healthz.get('status', '?')}",
        f"requests {int(counts.get('requests', 0))}"
        f"  qps {qps:.1f}"
        f"  errors {int(counts.get('errors', 0))}"
        f"  degraded {int(counts.get('degraded', 0))}",
        f"latency p50 {latency.get('p50_ms', 0.0):.1f} ms"
        f"  p99 {latency.get('p99_ms', 0.0):.1f} ms"
        f"  mean {latency.get('mean_ms', 0.0):.1f} ms",
    ]
    if slo:
        lines.append(
            f"SLO {slo.get('good_ratio', 1.0) * 100:.1f}% good "
            f"(objective {slo.get('objective_ms', 0):.0f} ms, "
            f"last {slo.get('total', 0)} of window {slo.get('window', 0)})")
    quality = stats.get("quality") or {}
    if quality.get("enabled"):
        mae = quality.get("slack_mae_ps")
        drift = quality.get("drift_score")
        acc = (quality.get("slo") or {})
        parts = [f"quality: audits {quality.get('samples', 0)}",
                 "slack MAE " + (f"{mae:.1f} ps" if mae is not None
                                 else "—"),
                 "drift " + (f"{drift:.3f}" if drift is not None else "—"),
                 f"acc-SLO {acc.get('good_ratio', 1.0) * 100:.1f}%"]
        hq = healthz.get("quality") or {}
        if hq.get("breached"):
            parts.append("BREACHED:" + ",".join(hq["breached"]))
        lines.append("  ".join(parts))
    for name, b in (stats.get("batching") or {}).items():
        lines.append(f"batcher[{name}]  {b.get('batches', 0)} batches"
                     f"  mean {b.get('mean_batch', 0.0):.2f}"
                     f"  max {b.get('max_batch', 0)}"
                     f"  depth {b.get('queue_depth', 0)}")
    caches = []
    for label in ("result_cache", "graph_cache"):
        cache = stats.get(label) or {}
        if cache:
            caches.append(f"{label.split('_')[0]} "
                          f"{cache.get('hits', 0)}/{cache.get('misses', 0)}"
                          f" h/m")
    if caches:
        lines.append("caches: " + "   ".join(caches))
    return "\n".join(lines)
