"""The artifact table format: a header of column names, then rows of numbers at
17 significant digits, so each float64 reads back bit for bit."""

import numpy as np

from .ode import ConfigurationError


def point_columns(dim, control_dim):
    """The columns of a query point: t, x0_1..x0_dim, then u (or u_1..u_k)."""
    u = ["u"] if control_dim == 1 else [f"u_{j + 1}" for j in range(control_dim)]
    return ["t", *(f"x0_{i + 1}" for i in range(dim)), *u]


def write_table(path, columns, rows):
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)


def read_table(path, required=()):
    """({column: index}, rows): at least one row, every ``required`` column, finite values."""
    with open(path) as fh:
        lines = [line.split(",") for line in fh.read().splitlines() if line.strip()]
    if len(lines) < 2:
        raise ConfigurationError(f"{path}: {'no data rows' if lines else 'empty CSV'}")
    header = [name.strip() for name in lines[0]]
    missing = [name for name in required if name not in header]
    if missing:
        raise ConfigurationError(f"{path} lacks column(s) {', '.join(missing)}; "
                                 f"it must have {', '.join(required)}")
    rows = np.full((len(lines) - 1, len(header)), np.nan)
    for i, cells in enumerate(lines[1:]):
        if len(cells) != len(header):
            raise ConfigurationError(f"{path}: row {i} has {len(cells)} of {len(header)} values")
        for j, cell in enumerate(cells):
            try:
                rows[i, j] = float(cell)
            except ValueError:
                pass            # left NaN, so the check below names it
    for i, j in np.argwhere(~np.isfinite(rows))[:1]:    # the first non-finite value, if any
        raise ConfigurationError(f"{path}: row {i}, column {header[j]}: "
                                 f"{lines[i + 1][j].strip()!r} is not a finite number")
    return {name: j for j, name in enumerate(header)}, rows
