"""Rendering helpers: the paper's tables and ASCII versions of its figures.

The benchmark harness prints the same rows/series the paper reports, so a
side-by-side comparison with Tables IV/V and Figs. 4-8 is a diff, not an
archaeology project.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.tables import format_table

__all__ = [
    "format_table",
    "format_fig4",
    "format_policy_table",
    "ascii_series_plot",
    "ascii_gantt",
]


def format_fig4(
    with_convgpu: Mapping[str, float],
    without_convgpu: Mapping[str, float],
    *,
    unit: float = 1e-3,
    unit_name: str = "ms",
) -> str:
    """Fig. 4-style table: response time per API, both series."""
    rows = []
    for api in with_convgpu:
        w = with_convgpu[api] / unit
        wo = without_convgpu.get(api, float("nan")) / unit
        rows.append((api, f"{wo:.4f}", f"{w:.4f}", f"{w / wo:.2f}x"))
    return format_table(
        ("API", f"without ({unit_name})", f"with ConVGPU ({unit_name})", "ratio"),
        rows,
        title="Fig. 4 — response time of the API call from the container",
    )


def format_policy_table(
    data: Mapping[str, Mapping[int, float]],
    counts: Sequence[int],
    *,
    title: str,
    policies: Sequence[str] = ("FIFO", "BF", "RU", "Rand"),
) -> str:
    """Table IV/V layout: policies as rows, container counts as columns."""
    headers = ["policy"] + [str(c) for c in counts]
    rows = []
    for policy in policies:
        row = [f"{policy} (sec)"] + [
            f"{data[policy][count]:.1f}" for count in counts
        ]
        rows.append(row)
    return format_table(headers, rows, title=title)


def ascii_gantt(
    rows: Mapping[str, Sequence[tuple[float, float, str]]],
    *,
    title: str,
    width: int = 60,
    end: float | None = None,
) -> str:
    """Render labelled time intervals as an ASCII gantt chart.

    ``rows`` maps a label (e.g. container name) to intervals
    ``(start, stop, kind)``; ``kind`` selects the fill character:
    ``run`` → ``█``, ``wait`` → ``░``, anything else → ``▒``.  Used to
    visualize suspension timelines next to execution spans.
    """
    fills = {"run": "█", "wait": "░"}
    horizon = end
    if horizon is None:
        horizon = max(
            (stop for spans in rows.values() for _s, stop, _k in spans),
            default=1.0,
        )
    if horizon <= 0:
        horizon = 1.0
    label_width = max((len(label) for label in rows), default=5)
    lines = [title]
    for label, spans in rows.items():
        track = [" "] * width
        for start, stop, kind in spans:
            lo = int(max(0.0, start) / horizon * (width - 1))
            hi = int(min(horizon, stop) / horizon * (width - 1))
            for x in range(lo, max(lo, hi) + 1):
                track[x] = fills.get(kind, "▒")
        lines.append(f"{label:<{label_width}} │{''.join(track)}│")
    lines.append(
        f"{'':<{label_width}}  0{'':{width - 8}}{horizon:7.1f}s"
        f"   (█ run  ░ wait)"
    )
    return "\n".join(lines)


def ascii_series_plot(
    series: Mapping[str, Sequence[float]],
    xs: Sequence[int],
    *,
    title: str,
    width: int = 68,
    height: int = 16,
) -> str:
    """A small ASCII line chart: one mark per (policy, x) point.

    Good enough to eyeball the Fig. 7/8 shapes (growth with count, the BF
    separation beyond ~18 containers) in terminal output.
    """
    marks = {}
    for mark, name in zip("*o+x#@", series):
        marks[name] = mark
    all_values = [v for values in series.values() for v in values]
    if not all_values:
        return f"{title}\n(no data)"
    vmax = max(all_values) or 1.0
    vmin = 0.0
    grid = [[" "] * width for _ in range(height)]
    for name, values in series.items():
        for i, value in enumerate(values):
            x = int(i * (width - 1) / max(1, len(xs) - 1))
            yfrac = (value - vmin) / (vmax - vmin)
            y = height - 1 - int(yfrac * (height - 1))
            grid[y][x] = marks[name]
    lines = [title]
    lines.append(f"{vmax:8.1f} ┐")
    for row in grid:
        lines.append("         │" + "".join(row))
    lines.append(f"{vmin:8.1f} └" + "─" * width)
    lines.append("          " + f"{xs[0]:<6}" + " " * (width - 12) + f"{xs[-1]:>6}")
    legend = "   ".join(f"{mark}={name}" for name, mark in marks.items())
    lines.append("          " + legend)
    return "\n".join(lines)
