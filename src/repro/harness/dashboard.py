"""Self-contained HTML run report: matrices, timelines, trends, verdicts.

``python -m repro.harness --report out.html`` funnels one run's
observability into a single file with zero external dependencies — no
JS frameworks, no CDN fonts, just inline SVG:

* per-figure **critical-path verdicts** (the analyser's own dominant
  resource, share, and binding window — the report never re-derives a
  verdict, so it cannot disagree with the analyser);
* rank×rank **communication heatmaps** per observed (figure, machine)
  phase, with intra/inter-node splits and per-phase traffic totals;
* **utilisation timelines** per resource kind from the time-bucketed
  busy series;
* the harness **span waterfall** and the **ledger trend** of wall time
  across recorded runs.

The full run document is also embedded verbatim in a
``<script type="application/json" id="run-data">`` block, so CI jobs and
notebooks can parse the numbers straight out of the HTML artifact.

Colors follow the repo's validated reference palette: one blue
sequential ramp for magnitude (heatmaps), fixed categorical slots per
resource kind (identity — a kind keeps its hue in every chart), and all
text in text tokens, never series colors.
"""

from __future__ import annotations

import html
import json
import math
from pathlib import Path

#: Bump when the embedded run-document layout changes incompatibly.
#: v2: optional ``energy`` section (per-phase joules + totals) when the
#: run had energy accounting on; absent key means accounting was off.
#: v3: optional ``telemetry`` (distributed-trace summary) and
#: ``service`` (service-metrics snapshot) sections when the run had
#: ``--telemetry`` on; they feed the service-health panel.
REPORT_SCHEMA_VERSION = 3

# Sequential blue ramp (steps 100..700) — magnitude encoding, light = near zero.
_SEQ_RAMP = (
    "#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec", "#5598e7",
    "#3987e5", "#2a78d6", "#256abf", "#1c5cab", "#184f95", "#104281",
    "#0d366b",
)

#: Fixed categorical slot per resource kind (identity never cycles).
_KIND_COLORS = {
    "egress": "#2a78d6",   # slot 1 blue
    "ingress": "#eb6834",  # slot 2 orange
    "core": "#1baf7a",     # slot 3 aqua
    "shm": "#eda100",      # slot 4 yellow
    "nicbus": "#e87ba4",   # slot 5 magenta
}
_KIND_ORDER = ("egress", "ingress", "core", "shm", "nicbus")

#: Fixed categorical slot per energy component (stacked bars, power panel).
_COMPONENT_COLORS = {
    "cpu_j": "#2a78d6",    # slot 1 blue
    "mem_j": "#eb6834",    # slot 2 orange
    "nic_j": "#1baf7a",    # slot 3 aqua
    "link_j": "#eda100",   # slot 4 yellow
}
_COMPONENT_LABELS = {
    "cpu_j": "cpu", "mem_j": "memory", "nic_j": "nic", "link_j": "links",
}

#: Span categories reuse the same fixed slots (identity per category).
_CAT_COLORS = {
    "figure": "#2a78d6",
    "table": "#eb6834",
    "observe": "#1baf7a",
    "sweep": "#86b6ef",
    "report": "#9ec5f4",
    "harness": "#6da7ec",
}

_GRID = "#f0efec"       # neutral grid / empty heatmap cell
_TEXT = "#0b0b0b"
_TEXT_2 = "#52514e"


def _esc(s: object) -> str:
    return html.escape(str(s), quote=True)


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    return f"{n:.1f} GiB"  # pragma: no cover - loop always returns


def _fmt_j(j: float) -> str:
    if abs(j) >= 1e6:
        return f"{j / 1e6:.2f} MJ"
    if abs(j) >= 1e3:
        return f"{j / 1e3:.2f} kJ"
    if abs(j) >= 1:
        return f"{j:.2f} J"
    return f"{j * 1e3:.2f} mJ"


def _fmt_s(sec: float) -> str:
    if sec >= 1:
        return f"{sec:.2f} s"
    if sec >= 1e-3:
        return f"{sec * 1e3:.2f} ms"
    return f"{sec * 1e6:.1f} us"


def _seq_color(frac: float) -> str:
    """Ramp color for ``frac`` in [0, 1]."""
    if frac <= 0:
        return _GRID
    i = min(len(_SEQ_RAMP) - 1, int(frac * len(_SEQ_RAMP)))
    return _SEQ_RAMP[i]


# -- document assembly ---------------------------------------------------------


def build_run_doc(*, harness: dict, totals: dict, items: list[dict],
                  comm: dict | None, timeline: dict | None,
                  observed: dict | None, spans: list[dict],
                  ledger: dict | None, energy: dict | None = None,
                  telemetry: dict | None = None,
                  service: dict | None = None) -> dict:
    """Assemble the machine-readable run document the report renders.

    ``observed`` is ``{fig_id: {machine: {"critical_path", "straggler",
    "traffic"}}}`` from :mod:`repro.harness.observe`; ``ledger`` is
    ``{"path", "entries", "trend", "regression"}`` or None; ``energy``
    is ``{"totals", "phases"}`` from the energy recorder, or None when
    accounting was off (the key is still present so readers need no
    version probing).  ``telemetry`` is a
    :func:`~repro.obs.telemetry.trace_summary` document and ``service``
    a :class:`~repro.service.health.ServiceMetrics` snapshot — both
    None when the run was untraced.
    """
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "harness": harness,
        "totals": totals,
        "items": items,
        "comm": comm or {"phases": {}},
        "timeline": timeline or {"phases": {}},
        "observed": observed or {},
        "spans": spans,
        "ledger": ledger,
        "energy": energy,
        "telemetry": telemetry,
        "service": service,
    }


# -- SVG building blocks -------------------------------------------------------


def _heatmap_svg(pm: dict, caption: str) -> str:
    """One rank×rank byte heatmap (log color scale) from a PhaseMatrix dict."""
    n = max(1, pm["nprocs"])
    cell = max(6, min(22, 352 // n))
    pad_l, pad_t = 34, 18
    w, h = pad_l + n * cell + 8, pad_t + n * cell + 26
    vmax = max((v[1] for v in pm["cells"].values()), default=0)
    lmax = math.log1p(vmax) or 1.0
    parts = [
        f'<svg role="img" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}" aria-label="{_esc(caption)}">',
        f'<rect x="{pad_l}" y="{pad_t}" width="{n * cell}" '
        f'height="{n * cell}" fill="{_GRID}"/>',
    ]
    for key, (msgs, nbytes) in pm["cells"].items():
        src, dst = (int(x) for x in key.split(","))
        frac = math.log1p(nbytes) / lmax
        x, y = pad_l + dst * cell, pad_t + src * cell
        parts.append(
            f'<rect x="{x}" y="{y}" width="{cell - 1}" height="{cell - 1}" '
            f'fill="{_seq_color(frac)}">'
            f"<title>rank {src} → {dst}: {msgs} msgs, "
            f"{_esc(_fmt_bytes(nbytes))}</title></rect>"
        )
    step = max(1, n // 4)
    for r in range(0, n, step):
        parts.append(
            f'<text x="{pad_l - 4}" y="{pad_t + r * cell + cell * 0.75}" '
            f'text-anchor="end" class="tick">{r}</text>'
        )
        parts.append(
            f'<text x="{pad_l + r * cell + cell / 2}" y="{pad_t - 5}" '
            f'text-anchor="middle" class="tick">{r}</text>'
        )
    parts.append(
        f'<text x="{pad_l + n * cell / 2}" y="{h - 8}" '
        f'text-anchor="middle" class="axis">destination rank → '
        f"(rows: source)</text>"
    )
    parts.append("</svg>")
    return "".join(parts)


def _timeline_svg(kinds: dict[str, dict], caption: str) -> str:
    """Occupancy lines (mean busy resources) per kind over virtual time."""
    width, height, pad_l, pad_b, pad_t = 560, 150, 44, 26, 8
    t_max = 0.0
    y_max = 0.0
    series: list[tuple[str, list[tuple[float, float]]]] = []
    for kind in _KIND_ORDER:
        sdict = kinds.get(kind)
        if not sdict or not sdict["buckets"]:
            continue
        w = sdict["width_s"]
        pts = [(int(i) * w, v / w)
               for i, v in sorted(sdict["buckets"].items(),
                                  key=lambda kv: int(kv[0]))]
        series.append((kind, pts))
        t_max = max(t_max, max(t for t, _ in pts) + w)
        y_max = max(y_max, max(v for _, v in pts))
    if not series:
        return '<p class="muted">no timeline data</p>'
    y_max = y_max or 1.0
    t_max = t_max or 1.0

    def sx(t: float) -> float:
        return pad_l + (t / t_max) * (width - pad_l - 8)

    def sy(v: float) -> float:
        return pad_t + (1 - v / y_max) * (height - pad_t - pad_b)

    parts = [
        f'<svg role="img" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" aria-label="{_esc(caption)}">'
    ]
    for frac in (0.0, 0.5, 1.0):
        y = sy(frac * y_max)
        parts.append(
            f'<line x1="{pad_l}" y1="{y:.1f}" x2="{width - 8}" y2="{y:.1f}" '
            f'stroke="{_GRID}" stroke-width="1"/>'
            f'<text x="{pad_l - 4}" y="{y + 3:.1f}" text-anchor="end" '
            f'class="tick">{frac * y_max:.2g}</text>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = frac * t_max
        parts.append(
            f'<text x="{sx(t):.1f}" y="{height - 10}" text-anchor="middle" '
            f'class="tick">{t * 1e6:.0f}</text>'
        )
    parts.append(
        f'<text x="{(pad_l + width) / 2}" y="{height - 1}" '
        f'text-anchor="middle" class="axis">virtual time (us) — '
        f"y: mean busy resources</text>"
    )
    for kind, pts in series:
        path = " ".join(f"{sx(t):.1f},{sy(v):.1f}" for t, v in pts)
        parts.append(
            f'<polyline points="{path}" fill="none" '
            f'stroke="{_KIND_COLORS[kind]}" stroke-width="2" '
            f'stroke-linejoin="round"><title>{_esc(kind)}</title></polyline>'
        )
    # Direct labels at line ends, nudged apart when they collide.
    ends = sorted(((pts[-1][1], kind, pts[-1][0]) for kind, pts in series),
                  reverse=True)
    last_y = -1e9
    for v, kind, t in ends:
        y = max(sy(v), last_y + 11)
        last_y = y
        parts.append(
            f'<text x="{min(sx(t) + 4, width - 4):.1f}" y="{y + 3:.1f}" '
            f'text-anchor="end" class="dlabel">{_esc(kind)}</text>'
        )
    parts.append("</svg>")
    legend = "".join(
        f'<span class="key"><span class="swatch" '
        f'style="background:{_KIND_COLORS[k]}"></span>{_esc(k)}</span>'
        for k, _ in series
    )
    return f'{parts[0]}{"".join(parts[1:])}<div class="legend">{legend}</div>'


def _spans_svg(spans: list[dict]) -> str:
    """Waterfall of the harness stage spans (two levels deep)."""
    rows: list[tuple[int, dict]] = []
    for root in spans:
        rows.append((0, root))
        for child in root.get("children", ()):
            rows.append((1, child))
    if not rows:
        return '<p class="muted">no spans recorded</p>'
    t0 = min(s["t_start"] for _, s in rows)
    t1 = max(s["t_end"] or s["t_start"] for _, s in rows)
    span_total = (t1 - t0) or 1.0
    width, row_h, pad_l = 560, 16, 120
    height = len(rows) * row_h + 20
    parts = [
        f'<svg role="img" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" aria-label="harness span waterfall">'
    ]
    for i, (depth, s) in enumerate(rows):
        dur = (s["t_end"] or s["t_start"]) - s["t_start"]
        x = pad_l + (s["t_start"] - t0) / span_total * (width - pad_l - 8)
        bw = max(1.5, dur / span_total * (width - pad_l - 8))
        y = i * row_h + 4
        color = _CAT_COLORS.get(s.get("cat", "harness"), _CAT_COLORS["harness"])
        label = (" " * depth) + s["name"]
        parts.append(
            f'<text x="{pad_l - 6}" y="{y + 10}" text-anchor="end" '
            f'class="tick">{_esc(label)}</text>'
            f'<rect x="{x:.1f}" y="{y}" width="{bw:.1f}" height="{row_h - 5}" '
            f'rx="2" fill="{color}">'
            f'<title>{_esc(s["name"])}: {_esc(_fmt_s(dur))}'
            f"</title></rect>"
        )
    parts.append("</svg>")
    return "".join(parts)


def _trend_svg(trend: list) -> str:
    """Wall-time trend over ledger entries for this run's work."""
    if len(trend) < 2:
        return ('<p class="muted">not enough comparable ledger entries yet '
                "for a trend line</p>")
    width, height, pad_l, pad_b = 560, 130, 44, 22
    vals = [float(v) for _sha, v in trend]
    y_max = max(vals) or 1.0
    n = len(vals)

    def sx(i: int) -> float:
        return pad_l + i / (n - 1) * (width - pad_l - 10)

    def sy(v: float) -> float:
        return 8 + (1 - v / y_max) * (height - 8 - pad_b)

    pts = " ".join(f"{sx(i):.1f},{sy(v):.1f}" for i, v in enumerate(vals))
    parts = [
        f'<svg role="img" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" aria-label="ledger wall-time trend">',
        f'<line x1="{pad_l}" y1="{sy(0):.1f}" x2="{width - 10}" '
        f'y2="{sy(0):.1f}" stroke="{_GRID}"/>',
        f'<text x="{pad_l - 4}" y="{sy(y_max) + 3:.1f}" text-anchor="end" '
        f'class="tick">{y_max:.3g}s</text>',
        f'<polyline points="{pts}" fill="none" stroke="{_SEQ_RAMP[7]}" '
        f'stroke-width="2" stroke-linejoin="round"/>',
    ]
    for i, (sha, v) in enumerate(trend):
        parts.append(
            f'<circle cx="{sx(i):.1f}" cy="{sy(float(v)):.1f}" r="4" '
            f'fill="{_SEQ_RAMP[7]}" stroke="#fcfcfb" stroke-width="2">'
            f"<title>{_esc(sha)}: {float(v):.3f}s</title></circle>"
        )
    parts.append(
        f'<text x="{(pad_l + width) / 2}" y="{height - 6}" '
        f'text-anchor="middle" class="axis">runs with identical work, '
        f"oldest → newest (wall seconds)</text></svg>"
    )
    return "".join(parts)


def _power_svg(kinds: dict, ph: dict, caption: str) -> str:
    """Modelled power vs virtual time for one energy phase.

    Prices the time-bucketed network occupancy with the phase's power
    model: egress/ingress/NIC-bus busy seconds at the NIC active-idle
    delta, switch-core busy at the link transfer power.  CPU busy is
    accounted in the joule totals but not time-bucketed, so the curve
    shows *network* dynamic power; the dashed line is the phase's
    average total power (all components) for scale.
    """
    power = ph.get("power")
    if not power or not kinds:
        return '<p class="muted">no bucketed occupancy to price</p>'
    nic_delta = power["nic_active_w"] - power["nic_idle_w"]
    weights = {"egress": nic_delta, "ingress": nic_delta,
               "nicbus": nic_delta, "core": power["link_active_w"]}
    series = [(k, kinds[k]) for k in ("egress", "ingress", "nicbus", "core")
              if kinds.get(k, {}).get("buckets")]
    if not series:
        return '<p class="muted">no bucketed occupancy to price</p>'
    # Kinds bucket independently; rebin everything onto the coarsest
    # width (all widths are powers of two, so bins nest exactly).
    width_s = max(s["width_s"] for _k, s in series)
    joules: dict[int, float] = {}
    for k, s in series:
        w = s["width_s"]
        for i, v in s["buckets"].items():
            j = int(int(i) * w / width_s)
            joules[j] = joules.get(j, 0.0) + v * weights[k]
    pts = [(j * width_s, joules[j] / width_s) for j in sorted(joules)]
    t_max = (max(j for j in joules) + 1) * width_s
    avg_w = (ph["total_j"] / ph["elapsed_s"]) if ph.get("elapsed_s") else 0.0
    y_max = max([v for _t, v in pts] + [avg_w]) or 1.0

    width, height, pad_l, pad_b, pad_t = 560, 150, 50, 26, 8

    def sx(t: float) -> float:
        return pad_l + (t / t_max) * (width - pad_l - 8)

    def sy(v: float) -> float:
        return pad_t + (1 - v / y_max) * (height - pad_t - pad_b)

    parts = [
        f'<svg role="img" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" aria-label="{_esc(caption)}">'
    ]
    for frac in (0.0, 0.5, 1.0):
        y = sy(frac * y_max)
        parts.append(
            f'<line x1="{pad_l}" y1="{y:.1f}" x2="{width - 8}" y2="{y:.1f}" '
            f'stroke="{_GRID}" stroke-width="1"/>'
            f'<text x="{pad_l - 4}" y="{y + 3:.1f}" text-anchor="end" '
            f'class="tick">{frac * y_max:.3g}</text>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t = frac * t_max
        parts.append(
            f'<text x="{sx(t):.1f}" y="{height - 10}" text-anchor="middle" '
            f'class="tick">{t * 1e6:.0f}</text>'
        )
    parts.append(
        f'<text x="{(pad_l + width) / 2}" y="{height - 1}" '
        f'text-anchor="middle" class="axis">virtual time (us) — '
        f"y: modelled network power (W)</text>"
    )
    path = " ".join(f"{sx(t):.1f},{sy(v):.1f}" for t, v in pts)
    parts.append(
        f'<polyline points="{path}" fill="none" '
        f'stroke="{_COMPONENT_COLORS["nic_j"]}" stroke-width="2" '
        f'stroke-linejoin="round"><title>network dynamic power</title>'
        f"</polyline>"
    )
    if avg_w > 0:
        y = sy(avg_w)
        parts.append(
            f'<line x1="{pad_l}" y1="{y:.1f}" x2="{width - 8}" y2="{y:.1f}" '
            f'stroke="{_TEXT_2}" stroke-width="1.5" stroke-dasharray="6 4">'
            f"<title>average total power {avg_w:.1f} W</title></line>"
            f'<text x="{width - 10}" y="{y - 4:.1f}" text-anchor="end" '
            f'class="dlabel">avg {avg_w:.3g} W</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _energy_bars_svg(phases: dict) -> str:
    """Horizontal stacked bars: joules per component for each phase."""
    rows = sorted(phases.items(), key=lambda kv: -kv[1]["total_j"])
    if not rows:
        return '<p class="muted">no energy recorded</p>'
    vmax = max(ph["total_j"] for _name, ph in rows) or 1.0
    width, row_h, pad_l = 560, 20, 210
    bar_span = width - pad_l - 70
    height = len(rows) * row_h + 8
    parts = [
        f'<svg role="img" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" '
        f'aria-label="energy per phase by component">'
    ]
    for i, (name, ph) in enumerate(rows):
        y = i * row_h + 3
        parts.append(
            f'<text x="{pad_l - 6}" y="{y + 11}" text-anchor="end" '
            f'class="tick">{_esc(name)}</text>'
        )
        x = float(pad_l)
        for comp in _COMPONENT_COLORS:
            val = ph.get(comp, 0.0)
            bw = val / vmax * bar_span
            if bw <= 0:
                continue
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{max(bw, 0.8):.1f}" '
                f'height="{row_h - 6}" fill="{_COMPONENT_COLORS[comp]}">'
                f"<title>{_esc(name)} {_COMPONENT_LABELS[comp]}: "
                f"{_esc(_fmt_j(val))}</title></rect>"
            )
            x += bw
        parts.append(
            f'<text x="{min(x + 4, width - 4):.1f}" y="{y + 11}" '
            f'class="tick">{_esc(_fmt_j(ph["total_j"]))}</text>'
        )
    parts.append("</svg>")
    legend = "".join(
        f'<span class="key"><span class="swatch" '
        f'style="background:{_COMPONENT_COLORS[c]}"></span>'
        f"{_COMPONENT_LABELS[c]}</span>"
        for c in _COMPONENT_COLORS
    )
    return f'{"".join(parts)}<div class="legend">{legend}</div>'


# -- page assembly -------------------------------------------------------------

_CSS = """
:root { color-scheme: light; }
body { font: 14px/1.45 system-ui, sans-serif; margin: 0 auto; padding: 20px;
       max-width: 980px; background: #fcfcfb; color: #0b0b0b; }
h1 { font-size: 20px; } h2 { font-size: 16px; margin-top: 28px; }
h3 { font-size: 13px; color: #52514e; font-weight: 600; }
.tiles { display: flex; gap: 12px; flex-wrap: wrap; }
.tile { border: 1px solid #e5e4e0; border-radius: 6px; padding: 8px 14px; }
.tile .v { font-size: 20px; font-weight: 700; }
.tile .k { font-size: 11px; color: #52514e; }
table { border-collapse: collapse; margin: 8px 0; }
th, td { text-align: left; padding: 3px 10px; border-bottom: 1px solid #eee; }
th { font-size: 11px; color: #52514e; text-transform: uppercase; }
svg { display: block; margin: 6px 0; }
svg .tick { font: 10px system-ui, sans-serif; fill: #52514e; }
svg .axis { font: 11px system-ui, sans-serif; fill: #52514e; }
svg .dlabel { font: 11px system-ui, sans-serif; fill: #0b0b0b; }
.legend { display: flex; gap: 14px; font-size: 12px; color: #0b0b0b; }
.key { display: inline-flex; align-items: center; gap: 5px; }
.swatch { width: 10px; height: 10px; border-radius: 2px; display: inline-block; }
.muted { color: #52514e; }
.grid { display: flex; flex-wrap: wrap; gap: 22px; }
.cell { max-width: 440px; }
.flag { color: #d03b3b; font-weight: 600; }
.ok { color: #0ca30c; font-weight: 600; }
details summary { cursor: pointer; color: #52514e; font-size: 12px; }
"""


def _verdict_rows(observed: dict) -> str:
    rows = []
    for fig in sorted(observed):
        for machine in sorted(observed[fig]):
            o = observed[fig][machine]
            cp = o["critical_path"]
            win = cp.get("dominant_window_us")
            when = ("-" if not win
                    else f"{win[0]:.1f}–{win[1]:.1f} us")
            str_ = o.get("straggler") or {}
            util = cp.get("utilisation", {})
            rows.append(
                f"<tr><td>{_esc(fig)}</td><td>{_esc(machine)}</td>"
                f"<td><b>{_esc(cp['dominant'])}</b></td>"
                f"<td>{cp['dominant_share'] * 100:.0f}%</td>"
                f"<td>{_esc(when)}</td>"
                f"<td>{util.get('bisection', 0) * 100:.0f}%</td>"
                f"<td>{util.get('nic', 0) * 100:.0f}%</td>"
                f"<td>{str_.get('max_skew_s', 0) * 1e6:.2f} us</td></tr>"
            )
    return "".join(rows)


def _phase_totals_rows(comm: dict) -> str:
    rows = []
    for name, pm in sorted(comm.get("phases", {}).items()):
        rows.append(
            f"<tr><td>{_esc(name)}</td><td>{pm['nprocs']}</td>"
            f"<td>{pm['intra']['msgs'] + pm['inter']['msgs']}</td>"
            f"<td>{_esc(_fmt_bytes(pm['intra']['bytes'] + pm['inter']['bytes']))}</td>"
            f"<td>{_esc(_fmt_bytes(pm['intra']['bytes']))}</td>"
            f"<td>{_esc(_fmt_bytes(pm['inter']['bytes']))}</td></tr>"
        )
    return "".join(rows)


def _trace_rows(telemetry: dict) -> str:
    """One table row per reassembled trace in the telemetry summary."""
    rows = []
    for tid, t in sorted(telemetry.get("traces", {}).items()):
        cats = ", ".join(f"{c}:{n}" for c, n in
                         sorted(t.get("by_cat", {}).items()))
        errs = t.get("errors", 0)
        err_html = (f'<span class="flag">{errs}</span>' if errs
                    else f'<span class="ok">0</span>')
        rows.append(
            f"<tr><td><code>{_esc(tid)}</code></td>"
            f"<td>{_esc(t.get('root_name', '?'))}</td>"
            f"<td>{t.get('spans', 0)}</td>"
            f"<td>{_esc(_fmt_s(t.get('wall_s', 0.0)))}</td>"
            f"<td>{err_html}</td><td>{_esc(cats)}</td></tr>"
        )
    return "".join(rows)


def _service_health_html(telemetry: dict | None,
                         service: dict | None) -> str:
    """The service-health panel: fleet/queue tiles + per-trace summaries."""
    if telemetry is None and service is None:
        return ('<p class="muted">telemetry off for this run '
                "(enable with <code>--telemetry</code>)</p>")
    parts = []
    if service is not None:
        counters = service.get("counters", {})
        gauges = service.get("gauges", {})

        def v(name: str):
            return counters.get(name, gauges.get(name, 0))

        ratio = gauges.get("service.cache.hit_ratio")
        tiles = [
            ("jobs done", v("service.jobs.done")),
            ("jobs failed", v("service.jobs.failed")),
            ("queue depth hwm", v("service.queue.depth_hwm")),
            ("coalesce owned", v("service.coalesce.owned")),
            ("coalesce joined", v("service.coalesce.joined")),
            ("fleet requests", v("service.fleet.requests")),
            ("fleet crashes", v("service.fleet.crashes")),
            ("fleet restarts", v("service.fleet.restarts")),
            ("cache hit ratio",
             "-" if ratio is None else f"{ratio * 100:.0f}%"),
        ]
        parts.append('<div class="tiles">' + "".join(
            f'<div class="tile"><div class="v">{_esc(val)}</div>'
            f'<div class="k">{_esc(k)}</div></div>' for k, val in tiles
        ) + "</div>")
    if telemetry is not None:
        n = len(telemetry.get("traces", {}))
        parts.append(
            f'<p class="muted">{telemetry.get("spans", 0)} spans across '
            f'{n} reassembled trace{"s" if n != 1 else ""}</p>'
            "<table><tr><th>trace</th><th>root</th><th>spans</th>"
            "<th>wall</th><th>errors</th><th>spans by category</th></tr>"
            f"{_trace_rows(telemetry)}</table>"
        )
    return "".join(parts)


def render_html(doc: dict) -> str:
    """Render the run document into one self-contained HTML page."""
    h = doc["harness"]
    totals = doc["totals"]
    observed = doc["observed"]
    comm_phases = doc["comm"].get("phases", {})
    tl_phases = doc["timeline"].get("phases", {})
    ledger = doc.get("ledger")
    energy = doc.get("energy")

    tiles = [
        ("git", h.get("git_sha", "unknown")),
        ("wall", _fmt_s(h.get("wall_s", 0.0))),
        ("points", totals.get("points", 0)),
        ("cache hits", totals.get("cache_hits", 0)),
        ("cache misses", totals.get("cache_misses", 0)),
        ("engine events", f"{totals.get('events', 0):,}"),
    ]
    if energy is not None:
        et = energy["totals"]
        tiles.append(("energy", _fmt_j(et.get("total_j", 0.0))))
        tiles.append(("avg power", f"{et.get('avg_power_w', 0.0):.3g} W"))
    tiles_html = "".join(
        f'<div class="tile"><div class="v">{_esc(v)}</div>'
        f'<div class="k">{_esc(k)}</div></div>' for k, v in tiles
    )

    # Heatmap + timeline per observed (figure, machine) phase.
    obs_cells = []
    for fig in sorted(observed):
        for machine in sorted(observed[fig]):
            phase = f"{fig}:{machine}"
            pm = comm_phases.get(phase)
            cell = [f"<h3>{_esc(phase)}</h3>"]
            if pm and pm["cells"]:
                cell.append(_heatmap_svg(pm, f"comm matrix {phase}"))
                cell.append(
                    f'<p class="muted">{pm["inter"]["msgs"]} inter-node / '
                    f'{pm["intra"]["msgs"]} intra-node msgs, '
                    f'{_esc(_fmt_bytes(pm["inter"]["bytes"] + pm["intra"]["bytes"]))}'
                    f" total</p>"
                )
            else:
                cell.append('<p class="muted">no traffic recorded</p>')
            kinds = tl_phases.get(phase)
            if kinds:
                cell.append(_timeline_svg(kinds, f"utilisation {phase}"))
            obs_cells.append(f'<div class="cell">{"".join(cell)}</div>')

    ledger_html = '<p class="muted">ledger disabled for this run</p>'
    if ledger is not None:
        reg = ledger.get("regression") or {}
        if not reg.get("checked"):
            verdict = (f'<p class="muted">regression check idle: '
                       f'{reg.get("history", 0)} comparable prior runs '
                       f"(need 3)</p>")
        elif reg.get("ok"):
            verdict = '<p class="ok">no regression vs trailing median</p>'
        else:
            flags = "; ".join(
                f"{r['field']} {r['ratio']:.2f}x median" for r in
                reg.get("regressions", ())
            )
            verdict = f'<p class="flag">regression flagged: {_esc(flags)}</p>'
        ledger_html = (
            f'<p class="muted">{ledger.get("entries", 0)} entries in '
            f'{_esc(ledger.get("path", "?"))}</p>'
            + _trend_svg(ledger.get("trend", [])) + verdict
        )

    energy_html = ('<p class="muted">energy accounting off for this run '
                   "(enable with <code>--energy</code>)</p>")
    if energy is not None:
        et = energy["totals"]
        ph_docs = energy.get("phases", {})
        power_cells = []
        # Power-vs-time panels for the heaviest phases that also have
        # bucketed occupancy; capped for page weight, and the cap is
        # stated rather than silent.
        cap = 8
        priced = [(name, ph) for name, ph in
                  sorted(ph_docs.items(), key=lambda kv: -kv[1]["total_j"])
                  if tl_phases.get(name)]
        for name, ph in priced[:cap]:
            power_cells.append(
                f'<div class="cell"><h3>{_esc(name)}</h3>'
                f'{_power_svg(tl_phases[name], ph, f"power {name}")}</div>'
            )
        cap_note = ""
        if len(priced) > cap:
            cap_note = (f'<p class="muted">showing the {cap} highest-energy '
                        f"phases of {len(priced)} with occupancy data</p>")
        elif not priced:
            cap_note = ('<p class="muted">no power-vs-time panels: bucketed '
                        "occupancy needs <code>--report</code>'s timeline "
                        "recorder (it was off or empty)</p>")
        energy_html = (
            f'<p class="muted">{_esc(_fmt_j(et["total_j"]))} total '
            f'({et["avg_power_w"]:.3g} W average over '
            f'{_esc(_fmt_s(et["elapsed_s"]))} of virtual time); '
            f'energy-delay product {et["edp_js"]:.4g} J·s</p>'
            + _energy_bars_svg(ph_docs)
            + cap_note + f'<div class="grid">{"".join(power_cells)}</div>'
        )

    blob = json.dumps(doc, sort_keys=True).replace("</", "<\\/")
    return f"""<!doctype html>
<html lang="en"><head><meta charset="utf-8">
<title>repro run report</title>
<style>{_CSS}</style></head>
<body>
<h1>repro run report</h1>
<div class="tiles">{tiles_html}</div>

<h2>Critical-path verdicts</h2>
<p class="muted">Dominant resource per observed (figure, machine), straight
from the critical-path analyser; "binding" is when it sat on the path.</p>
<table><tr><th>figure</th><th>machine</th><th>dominant</th><th>share</th>
<th>binding</th><th>bisection util</th><th>nic util</th>
<th>max skew</th></tr>{_verdict_rows(observed)}</table>

<h2>Communication matrices &amp; utilisation timelines</h2>
<div class="grid">{"".join(obs_cells) or '<p class="muted">run with figures selected to populate observed phases</p>'}</div>

<h2>Traffic by phase</h2>
<table><tr><th>phase</th><th>ranks</th><th>msgs</th><th>bytes</th>
<th>intra-node</th><th>inter-node</th></tr>{_phase_totals_rows(doc["comm"])}</table>

<h2>Harness span waterfall</h2>
{_spans_svg(doc["spans"])}

<h2>Energy</h2>
{energy_html}

<h2>Service telemetry &amp; health</h2>
{_service_health_html(doc.get("telemetry"), doc.get("service"))}

<h2>Run ledger</h2>
{ledger_html}

<details><summary>machine-readable run document</summary>
<p class="muted">Everything above, as JSON (also readable by CI straight
from this file).</p></details>
<script type="application/json" id="run-data">{blob}</script>
</body></html>
"""


def write_report(doc: dict, path: str | Path) -> Path:
    """Render and write the report; returns the path written."""
    p = Path(path)
    if str(p.parent):
        p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(render_html(doc), encoding="utf-8")
    return p


def read_report_doc(path: str | Path) -> dict:
    """Parse the embedded run document back out of a written report."""
    text = Path(path).read_text(encoding="utf-8")
    marker = 'id="run-data">'
    start = text.index(marker) + len(marker)
    end = text.index("</script>", start)
    return json.loads(text[start:end].replace("<\\/", "</"))
