"""Dependency-free SVG line charts for sweep records."""

from __future__ import annotations

import math
import sys

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 55
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _plot_range(lo: float, hi: float) -> tuple[float, float]:
    """[lo, hi], or, where the data span too little to divide (a single point,
    say), a range of width max(1, 1e-12 |lo|) up from lo (down at the float limit)."""
    if hi / 2 - lo / 2 >= 1e-300:
        return lo, hi
    width = max(1.0, abs(lo) * 1e-12)
    return (lo, lo + width) if lo + width < math.inf else (lo - width, lo)


def _position(v: float, lo: float, hi: float, size: float = 1.0) -> float:
    """size * (v - lo) / (hi - lo), in that order, which decides how pixel ties
    such as 241.875 round, on values scaled by 2**-11: exact but for subnormal
    values, and no difference or product overflows."""
    s = 2.0**-11
    return size * (v * s - lo * s) / (hi * s - lo * s)


def _error_ends(y: float, e: float) -> tuple[float, float]:
    """(y - e, y + e), each held to the float range so that neither overflows."""
    return max(y - e, -sys.float_info.max), min(y + e, sys.float_info.max)


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    """At most about ``n`` evenly spaced round values in a ``_plot_range``, each
    a whole multiple of the step, which comes from the half-width so that the
    widest float range stays finite."""
    raw = (hi / 2 - lo / 2) / ((n - 1) / 2)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next((mult * mag for mult in (1.0, 2.0, 2.5, 5.0) if mult * mag >= raw), 10.0 * mag)
    return [k * step for k in range(math.ceil(lo / step), math.floor(hi / step + 1e-9) + 1)]


def _fmt_tick(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 100 or abs(v) < 0.01:
        return f"{v:.1e}"
    return f"{v:.4g}"


def render_line_chart(series, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """Render [(label, xs, ys, errs-or-None), ...] into an SVG string."""
    if not series:
        raise ValueError("need at least one series")
    xs_all = [x for _, xs, _, _ in series for x in xs]
    ys_all = [y for _, _, ys, _ in series for y in ys]
    for label, xs, ys, errs in series:
        if len(xs) != len(ys) or (errs is not None and len(errs) != len(xs)):
            raise ValueError(f"series {label!r} has mismatched lengths")
        if errs is not None:
            ys_all.extend(end for y, e in zip(ys, errs) for end in _error_ends(y, e))
    x_lo, x_hi = _plot_range(min(xs_all), max(xs_all))
    y_lo, y_hi = min(ys_all + [0.0]), max(ys_all + [0.0])
    # a tenth of the half-width, and no further than the float limit, so the widest data stay finite
    pad = 0.1 * (y_hi / 2 - y_lo / 2) or 0.5
    y_lo, y_hi = _plot_range(max(y_lo - pad, -sys.float_info.max), min(y_hi + pad, sys.float_info.max))
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + _position(x, x_lo, x_hi, plot_w)

    def py(y):
        return MARGIN_T + plot_h * (1.0 - _position(y, y_lo, y_hi))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" font-size="15">{title}</text>',
    ]
    for tx in _ticks(x_lo, x_hi):
        x = px(tx)
        parts.append(
            f'<line x1="{x:.1f}" y1="{MARGIN_T}" x2="{x:.1f}" y2="{MARGIN_T + plot_h}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{MARGIN_T + plot_h + 18}" text-anchor="middle">{_fmt_tick(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{y:.1f}" x2="{MARGIN_L + plot_w}" y2="{y:.1f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{y + 4:.1f}" text-anchor="end">{_fmt_tick(ty)}</text>'
        )
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333"/>'
    )
    for k, (label, xs, ys, errs) in enumerate(series):
        color = COLORS[k % len(COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        if errs is not None:
            for x, y, e in zip(xs, ys, errs):
                if e > 0:
                    low, high = _error_ends(y, e)
                    parts.append(
                        f'<line x1="{px(x):.2f}" y1="{py(low):.2f}" '
                        f'x2="{px(x):.2f}" y2="{py(high):.2f}" stroke="{color}" stroke-width="1"/>'
                    )
        lx = MARGIN_L + plot_w - 150
        ly = MARGIN_T + 16 + 18 * k
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 30}" y="{ly}">{label}</text>')
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 14}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">{ylabel}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_sweep_chart(records, config) -> str:
    """Two-series chart (monitored and probe reality gains) for sweep records."""
    xs = [r.theta_m for r in records]
    d_x = [r.dR_X for r in records]
    d_xp = [r.dR_Xp for r in records]
    e_x = [r.se_dR_X for r in records] if records[0].se_dR_X is not None else None
    e_xp = [r.se_dR_Xp for r in records] if records[0].se_dR_Xp is not None else None
    if config.grid_kind == "axis_theta":
        xlabel = "observable axis angle theta (rad)"
    elif config.grid_kind == "epsilon":
        xs = [r.epsilon for r in records]
        xlabel = "measurement intensity epsilon"
    else:
        xlabel = "monitoring strength theta_m (rad)"
    title = f"{config.scenario} ({config.path})"
    return render_line_chart(
        [("dR monitored", xs, d_x, e_x), ("dR probe", xs, d_xp, e_xp)],
        title=title,
        xlabel=xlabel,
        ylabel="reality gain (bits)",
    )
