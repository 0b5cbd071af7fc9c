"""Standalone SVG emission for the harness CSVs.

Charts are assembled as plain strings with fixed coordinate formatting,
so regenerating from unchanged CSVs reproduces the files byte for byte.
"""

from __future__ import annotations

from pathlib import Path

from .dataset import DataError, parse_column, read_table

WIDTH, HEIGHT = 640, 400
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 40, 50

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
)


def _f(v: float) -> str:
    return f"{v:.2f}"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _doc(elements: list[str]) -> str:
    body = "\n".join(elements)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n{body}\n</svg>\n'
    )


def _frame(title: str, xlabel: str, ylabel: str) -> list[str]:
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    x1, y1 = WIDTH - MARGIN_R, MARGIN_T
    return [
        f'<text x="{(x0 + x1) // 2}" y="24" font-family="sans-serif" font-size="15" '
        f'text-anchor="middle">{_esc(title)}</text>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) // 2}" y="{HEIGHT - 12}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle">{_esc(xlabel)}</text>',
        f'<text x="18" y="{(y0 + y1) // 2}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 18 {(y0 + y1) // 2})">{_esc(ylabel)}</text>',
    ]


def _scales(xs: list[float], ys: list[float]):
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def sy(y: float) -> float:
        return (HEIGHT - MARGIN_B) - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - MARGIN_T - MARGIN_B)

    return sx, sy, (x_lo, x_hi, y_lo, y_hi)


def _axis_labels(bounds) -> list[str]:
    x_lo, x_hi, y_lo, y_hi = bounds
    y0 = HEIGHT - MARGIN_B
    return [
        f'<text x="{MARGIN_L}" y="{y0 + 16}" font-family="sans-serif" font-size="11" '
        f'text-anchor="middle">{_f(x_lo)}</text>',
        f'<text x="{WIDTH - MARGIN_R}" y="{y0 + 16}" font-family="sans-serif" font-size="11" '
        f'text-anchor="middle">{_f(x_hi)}</text>',
        f'<text x="{MARGIN_L - 6}" y="{y0 + 4}" font-family="sans-serif" font-size="11" '
        f'text-anchor="end">{_f(y_lo)}</text>',
        f'<text x="{MARGIN_L - 6}" y="{MARGIN_T + 4}" font-family="sans-serif" font-size="11" '
        f'text-anchor="end">{_f(y_hi)}</text>',
    ]


def _legend(labels: list[str]) -> list[str]:
    out = []
    for i, label in enumerate(labels):
        y = MARGIN_T + 14 + i * 16
        color = PALETTE[i % len(PALETTE)]
        out.append(
            f'<rect x="{WIDTH - MARGIN_R + 10}" y="{y - 9}" width="10" height="10" fill="{color}"/>'
        )
        out.append(
            f'<text x="{WIDTH - MARGIN_R + 26}" y="{y}" font-family="sans-serif" '
            f'font-size="11">{_esc(label)}</text>'
        )
    return out


def line_chart(series: list[tuple[str, list[tuple[float, float | None]]]],
               title: str, xlabel: str, ylabel: str) -> str:
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts if y is not None]
    if not xs or not ys:
        raise DataError("no plottable points")
    sx, sy, bounds = _scales(xs, ys)
    elements = _frame(title, xlabel, ylabel) + _axis_labels(bounds)
    for i, (label, pts) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        segment: list[str] = []
        segments: list[list[str]] = []
        for x, y in pts:
            if y is None:
                if segment:
                    segments.append(segment)
                    segment = []
                continue
            segment.append(f"{_f(sx(x))},{_f(sy(y))}")
        if segment:
            segments.append(segment)
        for seg in segments:
            if len(seg) == 1:
                cx, cy = seg[0].split(",")
                elements.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>')
            else:
                elements.append(
                    f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                    f'points="{" ".join(seg)}"/>'
                )
    elements += _legend([label for label, _ in series])
    return _doc(elements)


def bar_chart(categories: list[str], series: list[tuple[str, list[float | None]]],
              title: str, ylabel: str) -> str:
    values = [v for _, vals in series for v in vals if v is not None]
    if not categories or not values:
        raise DataError("no plottable bars")
    y_lo = min(0.0, min(values))
    y_hi = max(0.0, max(values))
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sy(y: float) -> float:
        return (HEIGHT - MARGIN_B) - (y - y_lo) / (y_hi - y_lo) * plot_h

    elements = _frame(title, "", ylabel) + [
        f'<text x="{MARGIN_L - 6}" y="{HEIGHT - MARGIN_B + 4}" font-family="sans-serif" '
        f'font-size="11" text-anchor="end">{_f(y_lo)}</text>',
        f'<text x="{MARGIN_L - 6}" y="{MARGIN_T + 4}" font-family="sans-serif" font-size="11" '
        f'text-anchor="end">{_f(y_hi)}</text>',
    ]
    n_cat = len(categories)
    n_ser = max(len(series), 1)
    cat_w = plot_w / n_cat
    bar_w = cat_w * 0.8 / n_ser
    zero_y = sy(0.0)
    for ci, cat in enumerate(categories):
        cx = MARGIN_L + ci * cat_w
        for si, (label, vals) in enumerate(series):
            v = vals[ci]
            if v is None:
                continue
            x = cx + cat_w * 0.1 + si * bar_w
            top = min(sy(v), zero_y)
            height = abs(sy(v) - zero_y)
            color = PALETTE[si % len(PALETTE)]
            elements.append(
                f'<rect x="{_f(x)}" y="{_f(top)}" width="{_f(bar_w)}" '
                f'height="{_f(height)}" fill="{color}"/>'
            )
        elements.append(
            f'<text x="{_f(cx + cat_w / 2)}" y="{HEIGHT - MARGIN_B + 16}" '
            f'font-family="sans-serif" font-size="10" text-anchor="middle">{_esc(cat)}</text>'
        )
    elements += _legend([label for label, _ in series])
    return _doc(elements)


def _read_csv(path: Path, expected: list[str], numbers: tuple[str, ...]) -> list[dict]:
    """The rows of report CSV ``path``, each cell of a ``numbers`` column a finite float.

    An empty ``value`` cell gives ``None``. A wrong header, or anything that
    ``read_table`` or ``parse_column`` rejects, is a ``DataError``.
    """
    header, lines, rows = read_table(path, "report CSV")
    if header != expected:
        raise DataError(f"{path.name}: expected columns {expected}, got {header}")
    columns = dict(zip(header, zip(*rows)))
    for col in numbers:
        columns[col] = parse_column(path, lines, col, columns[col], blank=col == "value")
    return [dict(zip(header, row)) for row in zip(*columns.values())]


def _curves_svg(path: Path, has_feasibility: bool, title: str) -> str:
    cols = ["model", "group", "delta", "value"] + (["feasibility"] if has_feasibility else [])
    rows = _read_csv(path, cols, ("delta", "value"))
    series: dict[str, list] = {}
    for row in rows:
        label = f'{row["model"]}/{row["group"]}'
        series.setdefault(label, []).append((row["delta"], row["value"]))
    ordered = [(label, series[label]) for label in sorted(series)]
    return line_chart(ordered, title, "delta", "value")


def _bars_svg(path: Path, title: str) -> str:
    rows = _read_csv(path, ["model", "measure", "group", "value"], ("value",))
    disp: dict[str, dict] = {}
    for row in rows:
        if row["group"] == "__disparity__":
            disp.setdefault(row["measure"], {})[row["model"]] = row["value"]
    categories = sorted(disp)
    models = sorted({m for vals in disp.values() for m in vals})
    series = [(m, [disp[c].get(m) for c in categories]) for m in models]
    return bar_chart(categories, series, title, "disparity")


def _segregation_svg(path: Path) -> str:
    rows = _read_csv(path, ["model", "measure", "population", "value"], ("value",))
    data: dict[tuple[str, str], dict] = {}
    for row in rows:
        data.setdefault((row["model"], row["population"]), {})[row["measure"]] = row["value"]
    categories = sorted({m for vals in data.values() for m in vals})
    series = [
        (f"{model}/{popname}", [data[(model, popname)].get(c) for c in categories])
        for model, popname in sorted(data)
    ]
    return bar_chart(categories, series, "Segregation before vs after imitation", "value")


def _tau_svg(path: Path) -> str:
    rows = _read_csv(path, ["tau", "measure", "value"], ("tau", "value"))
    series: dict[str, list] = {}
    for row in rows:
        series.setdefault(row["measure"], []).append((row["tau"], row["value"]))
    ordered = [(label, sorted(series[label])) for label in sorted(series)]
    return line_chart(ordered, "Impact measures vs constraint strength", "tau", "value")


FIGURES = {
    "bounded_effort_curves.csv": (
        "bounded_effort_curves.svg",
        lambda p: _curves_svg(p, False, "Best reward within an effort budget"),
    ),
    "threshold_reward_curves.csv": (
        "threshold_reward_curves.svg",
        lambda p: _curves_svg(p, True, "Least effort to reach a reward level"),
    ),
    "fairness_bars.csv": ("fairness_bars.svg", lambda p: _bars_svg(p, "Unfairness measures")),
    "segregation.csv": ("segregation.svg", _segregation_svg),
    "tau_sweep.csv": ("tau_sweep.svg", _tau_svg),
}


def cmd_figures(out_dir: Path) -> list[Path]:
    """Render an SVG for every known CSV present in the directory."""
    out_dir = Path(out_dir)
    written = []
    found = False
    for csv_name, (svg_name, render) in FIGURES.items():
        src = out_dir / csv_name
        if not src.exists():
            continue
        found = True
        svg = render(src)  # raises before anything is written
        (out_dir / svg_name).write_text(svg, encoding="utf-8")
        written.append(out_dir / svg_name)
    if not found:
        raise DataError(f"no known report CSVs in {out_dir}")
    return written
