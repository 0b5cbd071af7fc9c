"""Standalone SVG emission for the harness CSVs.

Charts are assembled as plain strings with fixed coordinate formatting,
so regenerating from unchanged CSVs reproduces the files byte for byte.
"""

from __future__ import annotations

import itertools
from pathlib import Path

from .dataset import DataError, parse_column, read_table

WIDTH, HEIGHT = 640, 400
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 40, 50

# The columns of each report CSV, as lists because ``read_table`` returns
# the header as one. The harness writes each report with these columns.
REPORT_COLUMNS = {
    "bounded_effort_curves.csv": ["model", "group", "delta", "value"],
    "threshold_reward_curves.csv": ["model", "group", "delta", "value", "feasibility"],
    "fairness_bars.csv": ["model", "measure", "group", "value"],
    "segregation.csv": ["model", "measure", "population", "value"],
    "tau_sweep.csv": ["tau", "measure", "value"],
}

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


def _span(values: list[float]) -> tuple[float, float]:
    """The least and the greatest of ``values``, the greatest moved to least + 1 when they are equal."""
    lo, hi = min(values), max(values)
    return lo, hi if hi != lo else lo + 1.0


def _y_axis(y_lo: float, y_hi: float):
    """The scale from ``[y_lo, y_hi]`` onto the plot's height, and the axis's two end labels."""

    def sy(y: float) -> float:
        return (HEIGHT - MARGIN_B) - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - MARGIN_T - MARGIN_B)

    return sy, [
        f'<text x="{MARGIN_L - 6}" y="{y + 4}" font-family="sans-serif" font-size="11" '
        f'text-anchor="end">{_f(v)}</text>'
        for y, v in ((HEIGHT - MARGIN_B, y_lo), (MARGIN_T, y_hi))
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
    x_lo, x_hi = _span(xs)
    y_lo, y_hi = _span(ys)
    pad = 0.05 * (y_hi - y_lo)
    sy, y_labels = _y_axis(y_lo - pad, y_hi + pad)

    def sx(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    elements = _frame(title, xlabel, ylabel) + [
        f'<text x="{x}" y="{HEIGHT - MARGIN_B + 16}" font-family="sans-serif" font-size="11" '
        f'text-anchor="middle">{_f(v)}</text>'
        for x, v in ((MARGIN_L, x_lo), (WIDTH - MARGIN_R, x_hi))
    ] + y_labels
    for i, (label, pts) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        # A missing value breaks the line; a piece of one point is drawn as a dot.
        for present, piece in itertools.groupby(pts, key=lambda p: p[1] is not None):
            if not present:
                continue
            coords = [f"{_f(sx(x))},{_f(sy(y))}" for x, y in piece]
            if len(coords) == 1:
                cx, cy = coords[0].split(",")
                elements.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>')
            else:
                elements.append(
                    f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                    f'points="{" ".join(coords)}"/>'
                )
    elements += _legend([label for label, _ in series])
    return _doc(elements)


def bar_chart(categories: list[str], series: list[tuple[str, list[float | None]]],
              title: str, ylabel: str) -> str:
    values = [v for _, vals in series for v in vals if v is not None]
    if not categories or not values:
        raise DataError("no plottable bars")
    sy, y_labels = _y_axis(*_span([0.0, *values]))
    elements = _frame(title, "", ylabel) + y_labels
    cat_w = (WIDTH - MARGIN_L - MARGIN_R) / len(categories)
    bar_w = cat_w * 0.8 / len(series)
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


def _read_csv(path: Path, numbers: tuple[str, ...]) -> list[dict]:
    """The rows of report CSV ``path``, each cell of a ``numbers`` column a finite float.

    An empty ``value`` cell gives ``None``. A header other than the file's
    ``REPORT_COLUMNS``, or anything that ``read_table`` or ``parse_column``
    rejects, is a ``DataError``.
    """
    header, lines, rows = read_table(path, "report CSV")
    expected = REPORT_COLUMNS[path.name]
    if header != expected:
        raise DataError(f"{path.name}: expected columns {expected}, got {header}")
    columns = dict(zip(header, zip(*rows)))
    for col in numbers:
        columns[col] = parse_column(path, lines, col, columns[col], blank=col == "value")
    return [dict(zip(header, row)) for row in zip(*columns.values())]


def _lines(rows: list[dict], label, x: str) -> list[tuple[str, list]]:
    """Per ``label(row)``, in label order, its ``(row[x], row["value"])`` points in ``x`` order."""
    lines: dict[str, list] = {}
    for row in rows:
        lines.setdefault(label(row), []).append((row[x], row["value"]))
    return [(name, sorted(lines[name], key=lambda p: p[0])) for name in sorted(lines)]


def _bars(rows: list[dict], key, category: str) -> tuple[list, list]:
    """The sorted ``category`` values, and for each sorted ``key(row)`` its value in each one.

    A category that a key has no row for gives ``None``.
    """
    cells = {(key(row), row[category]): row["value"] for row in rows}
    categories = sorted({c for _, c in cells})
    keys = sorted({k for k, _ in cells})
    return categories, [(k, [cells.get((k, c)) for c in categories]) for k in keys]


def _curves_svg(path: Path, title: str) -> str:
    rows = _read_csv(path, ("delta", "value"))
    series = _lines(rows, lambda row: f'{row["model"]}/{row["group"]}', "delta")
    return line_chart(series, title, "delta", "value")


def _bars_svg(path: Path, title: str) -> str:
    rows = [row for row in _read_csv(path, ("value",)) if row["group"] == "__disparity__"]
    categories, series = _bars(rows, lambda row: row["model"], "measure")
    return bar_chart(categories, series, title, "disparity")


def _segregation_svg(path: Path) -> str:
    rows = _read_csv(path, ("value",))
    categories, series = _bars(rows, lambda row: (row["model"], row["population"]), "measure")
    series = [(f"{model}/{popname}", values) for (model, popname), values in series]
    return bar_chart(categories, series, "Segregation before vs after imitation", "value")


def _tau_svg(path: Path) -> str:
    series = _lines(_read_csv(path, ("tau", "value")), lambda row: row["measure"], "tau")
    return line_chart(series, "Impact measures vs constraint strength", "tau", "value")


FIGURES = {
    "bounded_effort_curves.csv": (
        "bounded_effort_curves.svg",
        lambda p: _curves_svg(p, "Best reward within an effort budget"),
    ),
    "threshold_reward_curves.csv": (
        "threshold_reward_curves.svg",
        lambda p: _curves_svg(p, "Least effort to reach a reward level"),
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
