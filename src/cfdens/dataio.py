"""Dataset ingestion and long-format result serialization."""

from __future__ import annotations

import csv
import io
import math
from operator import itemgetter

import numpy as np

from .config import RunConfig
from .density_regression import ObservationTable
from .errors import DataError
from .measure_grid import GridSpec

FLOAT_FMT = "%.17g"


def load_dataset(path, config: RunConfig) -> tuple[ObservationTable, ObservationTable]:
    """Read a headered UTF-8 CSV and split its rows into (treated, control) tables.

    A leading byte-order mark and blank lines are skipped, and a row whose
    field count differs from the header's is an error.  Each needed column is
    parsed once: the outcome, the weight and every smooth covariate as finite
    float64, a categorical covariate as strings.  Outcomes above the cap become
    the cap atom, and every outcome must lie in a grid cell.  Every weight must
    be positive, and no weight column means unit weights.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [row for row in reader if row]
    kinds = {e.covariate_name: e.kind for e in config.effects if e.kind != "intercept"}
    needed = [config.outcome_column, config.group_column, *kinds]
    if config.weight_column:
        needed.append(config.weight_column)
    missing = [c for c in needed if c not in header]
    if missing:
        raise DataError(f"missing columns {missing} in {path}")
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    other = np.flatnonzero(lengths != len(header))
    if len(other):  # header is row 1
        raise DataError(f"row {other[0] + 2}: {lengths[other[0]]} fields, "
                        f"the header has {len(header)}")
    # a header name given twice refers to its last column
    position = {name: k for k, name in enumerate(header)}

    def column(name, numeric=True):
        values = list(map(itemgetter(position[name]), rows))
        if not numeric:
            return np.array(values, dtype=str)
        try:
            parsed = np.fromiter(map(float, values), dtype=float, count=len(values))
        except ValueError:  # so float fails on one text below, which raises
            for idx, text in enumerate(values, start=2):
                try:
                    float(text)
                except ValueError:
                    raise DataError(f"row {idx}: cannot parse '{text}' in column "
                                    f"'{name}' as a number") from None
        bad = np.flatnonzero(~np.isfinite(parsed))
        if len(bad):
            raise DataError(f"row {bad[0] + 2}: '{values[bad[0]]}' in column '{name}' "
                            "is not a finite number")
        return parsed

    labels = column(config.group_column, numeric=False)
    treated, control = labels == config.treated_label, labels == config.control_label
    unknown = np.flatnonzero(~(treated | control))
    if len(unknown):
        raise DataError(f"row {unknown[0] + 2}: unknown group label '{labels[unknown[0]]}'")
    outcomes = column(config.outcome_column)
    if config.cap is not None:
        outcomes = np.where(outcomes > config.cap, config.cap_atom, outcomes)
    grid = GridSpec.from_measure(config.measure, config.n_bins)
    outside = np.flatnonzero(grid.cell_indices(outcomes) < 0)
    if len(outside):
        raise DataError(f"row {outside[0] + 2}: {grid.domain_error(outcomes[outside[0]])}")
    weights = column(config.weight_column) if config.weight_column else np.ones(len(rows))
    nonpositive = np.flatnonzero(weights <= 0)
    if len(nonpositive):
        text = rows[nonpositive[0]][position[config.weight_column]]
        raise DataError(f"row {nonpositive[0] + 2}: weight '{text}' in column "
                        f"'{config.weight_column}' is not positive")
    columns = {name: column(name, kind == "smooth") for name, kind in kinds.items()}

    def build(label, mask):
        if not mask.any():
            raise DataError(f"no rows for group '{label}'")
        return ObservationTable(outcomes[mask], {n: v[mask] for n, v in columns.items()},
                                weights[mask], group=label)

    return build(config.treated_label, treated), build(config.control_label, control)


def format_curve_table(grid: GridSpec, values) -> str:
    """Long-format table: (grid_point, cell_type, value, valid_flag, draw_index).

    ``values`` is a D x G array on ``grid``; row d is draw d, and a cell's
    ``valid_flag`` is 1 exactly where its value is finite.
    """
    out = io.StringIO()
    out.write("grid_point,cell_type,value,valid_flag,draw_index\n")
    cells = [f"{FLOAT_FMT % c},{t}," for c, t in zip(grid.centers, grid.cell_types())]
    for d, row in enumerate(values.tolist()):
        for cell, v in zip(cells, row):
            txt, ok = (FLOAT_FMT % v, 1) if math.isfinite(v) else ("nan", 0)
            out.write(f"{cell}{txt},{ok},{d}\n")
    return out.getvalue()


def write_curve_table(path, grid: GridSpec, values):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_curve_table(grid, values))


def read_curve_table(path):
    """Inverse of ``write_curve_table``: {draw_index: (values, valid)} plus points."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]  # below the header of ``format_curve_table``
    draws: dict[int, tuple[list, list]] = {}
    for _, _, value, valid_flag, draw_index in rows:
        vals, valid = draws.setdefault(int(draw_index), ([], []))
        vals.append(float(value))
        valid.append(bool(int(valid_flag)))
    first = min(draws)
    n = len(draws[first][0])
    points = [float(r[0]) for r in rows[:n]]
    return points, {
        d: (np.array(v), np.array(m, dtype=bool)) for d, (v, m) in draws.items()
    }
