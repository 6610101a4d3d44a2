"""Static SVG charts built as plain strings.

Every chart is valid XML with a fixed viewBox, carries axis labels, and
embeds the run-manifest digest in a ``<metadata>`` element. Coordinates
render at fixed precision so identical inputs produce identical bytes.
Violin shapes are mirrored Gaussian kernel-density polygons with Silverman
bandwidth.
"""

from __future__ import annotations

import html
import math

import numpy as np

PANEL_W = 280
PANEL_H = 240
MARGIN = 46
HISTOGRAM_BINS = 20

PALETTE = ("#1f6fb4", "#d95f02", "#2a9d4e", "#7a4fa3")


def _fmt(value: float) -> str:
    return "%.2f" % value


class _Canvas:
    def __init__(self, width: int, height: int, digest: str | None):
        self.width = width
        self.height = height
        self.parts: list[str] = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
            f'width="{width}" height="{height}">',
            f"<metadata>manifest_digest={html.escape(digest or 'none', quote=False)}</metadata>",
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        ]

    def line(self, x1, y1, x2, y2, stroke="#444444", width=1.0, dash=None):
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"{dash_attr}/>'
        )

    def polyline(self, points, stroke, width=1.5):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}"/>'
        )

    def polygon(self, points, fill, opacity=0.6):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self.parts.append(
            f'<polygon points="{coords}" fill="{fill}" fill-opacity="{_fmt(opacity)}" '
            f'stroke="none"/>'
        )

    def rect(self, x, y, w, h, fill, opacity=1.0):
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
            f'fill="{fill}" fill-opacity="{_fmt(opacity)}"/>'
        )

    def text(self, x, y, content, size=11, anchor="middle", rotate=None):
        transform = f' transform="rotate({rotate} {_fmt(x)} {_fmt(y)})"' if rotate else ""
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
            f'font-size="{size}" text-anchor="{anchor}"{transform}>'
            f'{html.escape(content, quote=False)}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


class _Axes:
    """Maps data coordinates into one panel's pixel rectangle."""

    def __init__(self, canvas, x0, y0, x_range, y_range, title, x_label, y_label):
        self.canvas = canvas
        self.px = (x0 + MARGIN, x0 + PANEL_W - 12)
        self.py = (y0 + PANEL_H - MARGIN, y0 + 24)
        self.x_range = x_range
        self.y_range = y_range
        canvas.line(self.px[0], self.py[0], self.px[1], self.py[0])
        canvas.line(self.px[0], self.py[0], self.px[0], self.py[1])
        canvas.text((self.px[0] + self.px[1]) / 2, y0 + 14, title, size=12)
        canvas.text((self.px[0] + self.px[1]) / 2, y0 + PANEL_H - 8, x_label)
        canvas.text(x0 + 12, (self.py[0] + self.py[1]) / 2, y_label, rotate=-90)
        for frac in (0.0, 0.5, 1.0):
            xv = x_range[0] + frac * (x_range[1] - x_range[0])
            yv = y_range[0] + frac * (y_range[1] - y_range[0])
            canvas.text(self.x(xv), self.py[0] + 14, "%.2g" % xv, size=9)
            canvas.text(self.px[0] - 6, self.y(yv) + 3, "%.2g" % yv, size=9, anchor="end")

    def x(self, value):
        lo, hi = self.x_range
        frac = 0.0 if hi == lo else (value - lo) / (hi - lo)
        return self.px[0] + frac * (self.px[1] - self.px[0])

    def y(self, value):
        lo, hi = self.y_range
        frac = 0.0 if hi == lo else (value - lo) / (hi - lo)
        return self.py[0] + frac * (self.py[1] - self.py[0])


def sweep_svg(curve, digest: str | None = None) -> str:
    """Four panels (UAcc, USen, USpe, UPre vs. threshold), one polyline each."""
    metrics = (
        ("uncertainty accuracy", lambda p: p.ucm.uacc),
        ("uncertainty sensitivity", lambda p: p.ucm.usen),
        ("uncertainty specificity", lambda p: p.ucm.uspe),
        ("uncertainty precision", lambda p: p.ucm.upre),
    )
    width = 2 * PANEL_W
    height = 2 * PANEL_H
    canvas = _Canvas(width, height, digest)
    thresholds = [p.threshold for p in curve]
    x_range = (min(thresholds), max(thresholds)) if len(thresholds) > 1 else (0.0, 1.0)
    for k, (title, getter) in enumerate(metrics):
        x0 = (k % 2) * PANEL_W
        y0 = (k // 2) * PANEL_H
        axes = _Axes(canvas, x0, y0, x_range, (0.0, 1.0), title, "threshold", "value")
        points = [
            (axes.x(p.threshold), axes.y(getter(p)))
            for p in curve
            if getter(p) is not None
        ]
        if points:
            canvas.polyline(points, PALETTE[k])
    return canvas.render()


def reliability_svg(report, digest: str | None = None) -> str:
    """Reliability diagram of a calibration report: accuracy bars vs. the identity line."""
    canvas = _Canvas(PANEL_W, PANEL_H, digest)
    axes = _Axes(
        canvas, 0, 0, (0.0, 1.0), (0.0, 1.0),
        "reliability (ECE %.4f)" % report.ece, "confidence", "accuracy",
    )
    for b in report.bins:
        if b.count == 0:
            continue
        x_lo = axes.x(b.lo)
        x_hi = axes.x(b.hi)
        y_acc = axes.y(b.accuracy)
        canvas.rect(x_lo + 1, y_acc, x_hi - x_lo - 2, axes.y(0.0) - y_acc,
                    fill="#1f6fb4", opacity=0.7)
    canvas.line(axes.x(0), axes.y(0), axes.x(1), axes.y(1), stroke="#b03030", dash="4,3")
    return canvas.render()


def histogram_svg(groups: dict[str, np.ndarray], digest: str | None = None) -> str:
    """Overlaid density histograms of each group's normalized entropies over [0, 1]."""
    canvas = _Canvas(PANEL_W, PANEL_H, digest)
    edges = np.arange(HISTOGRAM_BINS + 1, dtype=np.float64) / HISTOGRAM_BINS
    tops = {}
    for name, values in groups.items():
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            continue
        counts, _ = np.histogram(values, bins=edges)
        tops[name] = counts / values.size
    y_max = max((t.max() for t in tops.values() if t.size), default=1.0) or 1.0
    axes = _Axes(canvas, 0, 0, (0.0, 1.0), (0.0, float(y_max)),
                 "group distribution", "normalized entropy", "fraction")
    for k, (name, top) in enumerate(tops.items()):
        color = PALETTE[k % len(PALETTE)]
        for b in range(HISTOGRAM_BINS):
            if top[b] == 0:
                continue
            x_lo = axes.x(edges[b])
            x_hi = axes.x(edges[b + 1])
            y_top = axes.y(top[b])
            canvas.rect(x_lo, y_top, x_hi - x_lo, axes.y(0.0) - y_top, color, opacity=0.45)
        canvas.text(axes.px[1] - 4, axes.py[1] + 12 + 12 * k, name, anchor="end", size=10)
    return canvas.render()


def separation_svg(report, digest: str | None = None) -> str:
    """Histogram of a separation report's correct vs. incorrect entropies."""
    groups = {"correct": report.correct_entropies, "incorrect": report.incorrect_entropies}
    return histogram_svg(groups, digest)


def silverman_bandwidth(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    sd = float(values.std(ddof=1)) if n > 1 else 0.0
    q75, q25 = np.percentile(values, [75.0, 25.0])
    iqr = float(q75 - q25)
    scale = min(sd, iqr / 1.34) if iqr > 0 else sd
    if scale <= 0:
        scale = max(abs(float(values.mean())), 1.0) * 1e-3
    return 0.9 * scale * n ** (-0.2)


def gaussian_kde(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    bw = silverman_bandwidth(values)
    z = (grid[:, None] - values[None, :]) / bw
    return np.exp(-0.5 * z * z).sum(axis=1) / (values.size * bw * math.sqrt(2 * math.pi))


def violin_svg(groups: dict[str, np.ndarray], y_label: str,
               digest: str | None = None) -> str:
    """Mirrored kernel-density polygons, one violin per group."""
    canvas = _Canvas(PANEL_W, PANEL_H, digest)
    names = list(groups)
    pooled = np.concatenate([np.asarray(v, dtype=np.float64) for v in groups.values()])
    pad = 0.05 * (pooled.max() - pooled.min() or 1.0)
    y_range = (float(pooled.min() - pad), float(pooled.max() + pad))
    axes = _Axes(canvas, 0, 0, (0.0, float(len(names))), y_range,
                 "metric distribution", "", y_label)
    grid = np.linspace(y_range[0], y_range[1], 80)
    half_width = 0.38
    for k, name in enumerate(names):
        values = np.asarray(groups[name], dtype=np.float64)
        density = gaussian_kde(values, grid)
        top = density.max() or 1.0
        center = k + 0.5
        offsets = half_width * density / top
        right = [(axes.x(center + o), axes.y(g)) for o, g in zip(offsets, grid)]
        left = [(axes.x(center - o), axes.y(g)) for o, g in zip(offsets[::-1], grid[::-1])]
        canvas.polygon(right + left, PALETTE[k % len(PALETTE)])
        canvas.line(axes.x(center - half_width), axes.y(float(values.mean())),
                    axes.x(center + half_width), axes.y(float(values.mean())),
                    stroke="#222222")
        canvas.text(axes.x(center), axes.py[0] + 14, name, size=10)
    return canvas.render()
