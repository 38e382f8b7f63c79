"""Dataset ingestion and long-format result serialization."""

from __future__ import annotations

import csv
import io

import numpy as np

from .config import RunConfig
from .density_regression import ObservationTable
from .errors import DataError
from .measure_grid import GridSpec

FLOAT_FMT = "%.17g"


def load_dataset(path, config: RunConfig) -> tuple[ObservationTable, ObservationTable]:
    """Read a headered CSV and split rows into (treated, control) tables.

    Outcomes above the configured cap are mapped to the cap atom; missing
    weight column means unit weights.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        needed = [config.outcome_column, config.group_column] + [
            e.covariate_name for e in config.effects if e.kind != "intercept"
        ]
        if config.weight_column:
            needed.append(config.weight_column)
        missing = [c for c in needed if c not in header]
        if missing:
            raise DataError(f"missing columns {missing} in {path}")
        rows = list(reader)

    cov_names = [e.covariate_name for e in config.effects if e.kind != "intercept"]
    groups = {config.treated_label: [], config.control_label: []}
    for idx, row in enumerate(rows, start=2):  # header is line 1
        label = row[config.group_column]
        if label not in groups:
            raise DataError(f"row {idx}: unknown group label '{label}'")
        try:
            y = float(row[config.outcome_column])
        except ValueError as exc:
            raise DataError(f"row {idx}: unparseable outcome '{row[config.outcome_column]}'") from exc
        if config.cap is not None and y > config.cap:
            y = config.cap_atom
        if config.weight_column:
            try:
                w = float(row[config.weight_column])
            except ValueError as exc:
                raise DataError(f"row {idx}: unparseable weight") from exc
        else:
            w = 1.0
        groups[label].append((y, {c: row[c] for c in cov_names}, w))

    def build(label):
        rows = groups[label]
        if not rows:
            raise DataError(f"no rows for group '{label}'")
        return ObservationTable(
            outcomes=np.array([r[0] for r in rows]),
            covariates={
                c: np.array([r[1][c] for r in rows]) for c in cov_names
            },
            weights=np.array([r[2] for r in rows]),
            group=label,
        )

    return build(config.treated_label), build(config.control_label)


def format_curve_table(grid: GridSpec, curves) -> str:
    """Long-format table: (grid_point, cell_type, value, valid_flag, draw_index).

    ``curves`` is a list of (draw_index, values, valid) triples sharing the grid.
    """
    out = io.StringIO()
    out.write("grid_point,cell_type,value,valid_flag,draw_index\n")
    types = grid.cell_types()
    for draw_index, values, valid in curves:
        for g in range(grid.n_cells):
            v = values[g]
            txt = FLOAT_FMT % v if np.isfinite(v) else "nan"
            out.write(
                f"{FLOAT_FMT % grid.centers[g]},{types[g]},{txt},"
                f"{int(bool(valid[g]))},{draw_index}\n"
            )
    return out.getvalue()


def write_curve_table(path, grid: GridSpec, curves):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_curve_table(grid, curves))


def read_curve_table(path):
    """Inverse of ``write_curve_table``: {draw_index: (values, valid)} plus points."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    draws: dict[int, tuple[list, list]] = {}
    for row in rows:
        d = int(row["draw_index"])
        vals, valid = draws.setdefault(d, ([], []))
        vals.append(float(row["value"]))
        valid.append(bool(int(row["valid_flag"])))
    first = min(draws)
    n = len(draws[first][0])
    points = [float(r["grid_point"]) for r in rows[:n]]
    return points, {
        d: (np.array(v), np.array(m, dtype=bool)) for d, (v, m) in draws.items()
    }


def density_curve(density) -> tuple[int, np.ndarray, np.ndarray]:
    return (0, density.values, np.ones(density.grid.n_cells, dtype=bool))


def ratio_curves(bands) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Point estimate as draw 0, band draws as 1..B."""
    out = [(0, bands.point.values, bands.point.valid)]
    for b, draw in enumerate(bands.draws, start=1):
        out.append((b, draw.values, draw.valid))
    return out
