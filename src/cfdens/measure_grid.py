"""Mixed reference measures, grid densities, and Bayes Hilbert space arithmetic.

The reference measure is Lebesgue measure on an optional interval plus a set
of weighted point masses.  Densities live on a computational grid: histogram
bins over the continuous part followed by one cell per atom, where an atom
cell's "width" is its atom weight.  All integrals are midpoint sums against
that grid, so every operation is O(number of cells).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, StructuralError

#: tolerance for the unit-integral invariant of densities
INTEGRAL_TOL = 1e-8


@dataclass(frozen=True)
class ReferenceMeasure:
    """Mixed measure: optional continuous interval plus weighted atoms.

    ``atoms`` is a tuple of ``(location, weight)`` pairs, kept in the order
    given.  Atom weights default to 1 so that an atom's density value equals
    its probability mass.
    """

    continuous_interval: tuple[float, float] | None = None
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.continuous_interval is None and not self.atoms:
            raise DomainError("reference measure needs an interval or atoms")
        if self.continuous_interval is not None:
            a, b = self.continuous_interval
            if not (np.isfinite([a, b]).all() and a < b):
                raise DomainError(f"interval bounds must be finite with a < b, got ({a}, {b})")
        for loc, w in self.atoms:
            if not np.isfinite(loc):
                raise DomainError(f"atom location must be finite, got {loc}")
            if not (np.isfinite(w) and w > 0):
                raise DomainError(f"atom weight at {loc} must be finite and positive, got {w}")
        locs = [loc for loc, _ in self.atoms]
        if len(set(locs)) != len(locs):
            raise DomainError("atom locations must be distinct")

    @property
    def atom_locations(self) -> tuple[float, ...]:
        return tuple(loc for loc, _ in self.atoms)


@dataclass(frozen=True)
class GridSpec:
    """Computational grid: continuous histogram bins, then atom cells.

    ``centers`` and ``widths`` cover all cells; atom cells carry the atom
    location as center and the atom weight as width.  ``edges`` covers only
    the continuous bins (empty when the measure has no continuous part).
    """

    edges: np.ndarray
    centers: np.ndarray
    widths: np.ndarray
    n_continuous: int
    atom_locations: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "edges", np.asarray(self.edges, dtype=float))
        object.__setattr__(self, "centers", np.asarray(self.centers, dtype=float))
        object.__setattr__(self, "widths", np.asarray(self.widths, dtype=float))
        if np.any(self.widths <= 0):
            raise DomainError("all cell widths must be strictly positive")

    @classmethod
    def from_measure(cls, measure: ReferenceMeasure, n_bins: int) -> "GridSpec":
        """Equal-width bins over the continuous part; one cell per atom."""
        if measure.continuous_interval is not None:
            if n_bins < 1:
                raise DomainError("need at least one bin for a continuous part")
            a, b = measure.continuous_interval
            edges = np.linspace(a, b, n_bins + 1)
            for loc, _ in measure.atoms:
                if np.any(edges == loc):
                    raise DomainError(f"atom at {loc} duplicates a bin edge")
            centers = 0.5 * (edges[:-1] + edges[1:])
            widths = np.diff(edges)
            n_cont = n_bins
        else:
            edges = np.empty(0)
            centers = np.empty(0)
            widths = np.empty(0)
            n_cont = 0
        atom_locs = [loc for loc, _ in measure.atoms]
        atom_wts = [w for _, w in measure.atoms]
        return cls(
            edges=edges,
            centers=np.concatenate([centers, atom_locs]),
            widths=np.concatenate([widths, atom_wts]),
            n_continuous=n_cont,
            atom_locations=tuple(atom_locs),
        )

    @property
    def n_cells(self) -> int:
        return len(self.centers)

    @property
    def n_atoms(self) -> int:
        return len(self.atom_locations)

    @property
    def total_measure(self) -> float:
        return float(np.sum(self.widths))

    def cell_types(self) -> list[str]:
        return ["bin"] * self.n_continuous + ["atom"] * self.n_atoms

    def cell_index(self, y: float) -> int:
        """Cell containing outcome ``y``: atom on exact match, else the bin.

        Bins are left-closed ``[a_{g-1}, a_g)`` with the last bin closed.
        """
        cell = int(self.cell_indices(np.array([y]))[0])
        if cell < 0:
            raise self.domain_error(y)
        return cell

    def cell_indices(self, ys: np.ndarray) -> np.ndarray:
        """Array form of ``cell_index``, with -1 for outcomes in no cell."""
        ys = np.asarray(ys, dtype=float)
        cells = np.full(len(ys), -1, dtype=np.intp)
        if self.n_continuous:
            inside = (self.edges[0] <= ys) & (ys <= self.edges[-1])
            bins = np.searchsorted(self.edges, ys[inside], side="right") - 1
            cells[inside] = np.minimum(bins, self.n_continuous - 1)  # last bin closed
        for d, loc in enumerate(self.atom_locations):
            cells[ys == loc] = self.n_continuous + d
        return cells

    def domain_error(self, y: float) -> DomainError:
        """The error for an outcome ``y`` that lies in no cell."""
        if self.n_continuous == 0:
            return DomainError(f"outcome {y} matches no atom and there is no interval")
        return DomainError(f"outcome {y} outside the interval [{self.edges[0]}, {self.edges[-1]}]")

    def same_as(self, other: "GridSpec") -> bool:
        """Bitwise equality on edges, centers, widths, and atoms."""
        return (
            self is other
            or (
                np.array_equal(self.edges, other.edges)
                and np.array_equal(self.centers, other.centers)
                and np.array_equal(self.widths, other.widths)
                and self.n_continuous == other.n_continuous
                and self.atom_locations == other.atom_locations
            )
        )


def _check_same_grid(g1: GridSpec, g2: GridSpec):
    if not g1.same_as(g2):
        raise StructuralError("grids do not match")


def integrate(values: np.ndarray, grid: GridSpec) -> float:
    """Midpoint-rule integral of cellwise values against the measure."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_cells,):
        raise StructuralError(
            f"expected {grid.n_cells} cell values, got shape {values.shape}"
        )
    return float(np.dot(values, grid.widths))


@dataclass(frozen=True)
class GridValues:
    """Values on ``grid``, one per cell along the last of ``ndims`` allowed axes;
    a subclass checks its own invariant in ``_check``."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    ndims = (1,)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim not in self.ndims or self.values.shape[-1] != self.grid.n_cells:
            raise StructuralError(f"{type(self).__name__} values of shape {self.values.shape} "
                                  f"do not match the {self.grid.n_cells} grid cells")
        self._check()

    def _check(self):
        """Raise unless ``values`` holds the invariant of the class."""


class GridDensity(GridValues):
    """Nonnegative density w.r.t. the reference measure; unit integral."""

    def _check(self):
        if np.any(self.values < 0):
            raise DomainError("density values must be nonnegative")
        total = integrate(self.values, self.grid)
        if abs(total - 1.0) > INTEGRAL_TOL:
            raise DomainError(f"density integrates to {total}, not 1")

    @classmethod
    def from_unnormalized(cls, grid: GridSpec, values: np.ndarray) -> "GridDensity":
        values = np.asarray(values, dtype=float)
        total = integrate(values, grid)
        if total <= 0:
            raise DomainError("cannot normalize: total mass is not positive")
        return cls(grid, values / total)


class ClrFunction(GridValues):
    """Element of the zero-integral L2 space: clr image of a density."""

    def _check(self):
        total = integrate(self.values, self.grid)
        if abs(total) > INTEGRAL_TOL:
            raise DomainError(f"clr function has integral {total}, not 0")


def uniform_density(grid: GridSpec) -> GridDensity:
    """The neutral element: constant density 1 / mu(T)."""
    return GridDensity(grid, np.full(grid.n_cells, 1.0 / grid.total_measure))


def clr(f: GridDensity) -> ClrFunction:
    """Centered log-ratio: log f minus its measure-average."""
    if np.any(f.values <= 0):
        bad = int(np.argmax(f.values <= 0))
        raise DomainError(f"clr requires strictly positive values; cell {bad} is not")
    logs = np.log(f.values)
    mean = integrate(logs, f.grid) / f.grid.total_measure
    return ClrFunction(f.grid, logs - mean)


def clr_inverse(g: ClrFunction) -> GridDensity:
    """The density of finite clr values (``density_from_clr_values``)."""
    if not np.all(np.isfinite(g.values)):
        raise DomainError("clr_inverse requires finite values")
    return density_from_clr_values(g.grid, g.values)


def density_from_clr_values(grid: GridSpec, values: np.ndarray) -> GridDensity:
    """Exponentiate and renormalize; max-subtraction guards overflow.

    The values need not be centered: on raw (uncentered) log-density
    evaluations the additive constant drops out in the renormalization.
    """
    values = np.asarray(values, dtype=float)
    return GridDensity.from_unnormalized(grid, np.exp(values - np.max(values)))


def oplus(f1: GridDensity, f2: GridDensity) -> GridDensity:
    """Bayes space addition: pointwise product, renormalized."""
    _check_same_grid(f1.grid, f2.grid)
    return GridDensity.from_unnormalized(f1.grid, f1.values * f2.values)


def odot(alpha: float, f: GridDensity) -> GridDensity:
    """Bayes space scalar multiplication: pointwise power, renormalized."""
    if np.any(f.values <= 0) and alpha < 0:
        raise DomainError("negative power of a density with zero cells")
    return GridDensity.from_unnormalized(f.grid, np.power(f.values, alpha))


def ominus(f1: GridDensity, f2: GridDensity) -> GridDensity:
    """Bayes space subtraction: pointwise ratio, renormalized."""
    _check_same_grid(f1.grid, f2.grid)
    if np.any(f2.values == 0):
        bad = int(np.argmax(f2.values == 0))
        raise DomainError(f"ominus denominator is zero at cell {bad}")
    return GridDensity.from_unnormalized(f1.grid, f1.values / f2.values)


def inner_product_b2(f1: GridDensity, f2: GridDensity) -> float:
    """Bayes Hilbert space inner product: integral of the clr product."""
    _check_same_grid(f1.grid, f2.grid)
    return integrate(clr(f1).values * clr(f2).values, f1.grid)


def tv_distance(f1: GridDensity, f2: GridDensity) -> float:
    """Total variation distance: half the integral of |f1 - f2|.

    Atoms enter through the measure, i.e. with their weights.
    """
    _check_same_grid(f1.grid, f2.grid)
    return 0.5 * integrate(np.abs(f1.values - f2.values), f1.grid)
