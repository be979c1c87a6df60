"""Minimal deterministic SVG line plots.

Hand-rolled so artifact bytes depend only on the data: no library
version strings, timestamps or float-formatting drift.
"""

import math

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 40, 52
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _nice_step(span, target=5):
    if span <= 0.0 or not math.isfinite(span):
        return 1.0
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _ticks(lo, hi):
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _fmt(v):
    return f"{v:.6g}"


def line_plot(path, x, series, xlabel="", ylabel="", title="", ylog=False):
    """Write a multi-series line plot; series maps label -> y array.

    NaN values and (for log plots) non-positive values break the line.
    """
    xs = [float(v) for v in x]
    cleaned = {}
    for label, ys in series.items():
        cleaned[label] = [float(v) for v in ys]

    def usable(y):
        if math.isnan(y) or math.isinf(y):
            return False
        return (y > 0.0) if ylog else True

    ys_all = [y for ys in cleaned.values() for y in ys if usable(y)]
    # with nothing to draw, the axes span [0, 1] in plotted (log or linear) space
    if not ys_all or not xs:
        ty_all = [0.0, 1.0]
    else:
        ty_all = [math.log10(y) for y in ys_all] if ylog else ys_all

    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_lo, y_hi = min(ty_all), max(ty_all)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def px(v):
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * pw

    def py(v):
        return MARGIN_T + (y_hi - v) / (y_hi - y_lo) * ph

    parts = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">')
    parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    parts.append(
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>')

    # axes box
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>')

    for t in _ticks(x_lo, x_hi):
        xx = px(t)
        parts.append(
            f'<line x1="{xx:.2f}" y1="{MARGIN_T}" x2="{xx:.2f}" '
            f'y2="{MARGIN_T + ph}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(
            f'<text x="{xx:.2f}" y="{MARGIN_T + ph + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_fmt(t)}</text>')

    if ylog:
        lo_d, hi_d = math.floor(y_lo), math.ceil(y_hi)
        yticks = [d for d in range(int(lo_d), int(hi_d) + 1) if y_lo <= d <= y_hi]
        if len(yticks) < 2:
            yticks = _ticks(y_lo, y_hi)
        labels = [f"1e{int(d)}" if float(d).is_integer() else f"{10 ** d:.2g}"
                  for d in yticks]
    else:
        yticks = _ticks(y_lo, y_hi)
        labels = [_fmt(t) for t in yticks]
    for t, lbl in zip(yticks, labels):
        yy = py(t)
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{yy:.2f}" x2="{MARGIN_L + pw}" '
            f'y2="{yy:.2f}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(
            f'<text x="{MARGIN_L - 6}" y="{yy + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{lbl}</text>')

    parts.append(
        f'<text x="{MARGIN_L + pw / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    parts.append(
        f'<text x="18" y="{MARGIN_T + ph / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {MARGIN_T + ph / 2:.1f})">{ylabel}</text>')

    for idx, (label, ys) in enumerate(cleaned.items()):
        color = PALETTE[idx % len(PALETTE)]
        segments = []
        current = []
        for xv, yv in zip(xs, ys):
            if usable(yv):
                ty = math.log10(yv) if ylog else yv
                current.append(f"{px(xv):.2f},{py(ty):.2f}")
            elif current:
                segments.append(current)
                current = []
        if current:
            segments.append(current)
        for seg in segments:
            if len(seg) == 1:
                cx, cy = seg[0].split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="2" fill="{color}"/>')
            else:
                parts.append(
                    f'<polyline points="{" ".join(seg)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN_T + 16 + 16 * idx
        lx = MARGIN_L + pw - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{label}</text>')

    parts.append("</svg>")
    data = "\n".join(parts) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(data)
    return path
