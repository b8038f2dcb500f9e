"""The fifteen named edges of the chamber tetrahedron and the
perfect-entangler polyhedron.

Each edge is the straight segment between two named vertices of
:mod:`canonical` (O, A1, A2, A3 or L, M, N, P, Q, A2), traced linearly over
a parameter range, together with closed-form Schmidt coefficients along
it. :func:`sweep` evaluates an edge once, as columns (:class:`Sweep`), and
:func:`sweep_csv` and :func:`edge_svg` render from that record. Sweeps
always compute coefficients through the expansion-coefficient engine
(z_from_point); the closed forms are kept only as an independent oracle,
checked by :func:`verify_tables`.

The oracle compares sorted coefficients, so edges whose points are mirror
images under a symmetry that keeps |z| share one closed form (Zhang et
al., PRA 67, 042313 (2003)):

* A2M and A2Q use A2A1's. A2M is the first half of A2A1, and the base
  mirror c1 -> pi - c1 maps A2A1 at parameter t onto A2Q at t.
* LM uses LQ's: the base mirror maps LM onto LQ.
* A1A3 uses OA3's and MN uses QP's: each is the c3 -> -c3 mirror image
  of the other edge at the same parameter, with the same |z|.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .canonical import (
    POLYHEDRON_VERTICES,
    TETRAHEDRON_VERTICES,
    is_perfect_entangler_array,
    weyl_reduce_array,
)
from .errors import ValidationError
from .linops import DEFAULT_TOL
from .invariants import invariants_from_point_array
from .schmidt import schmidt_strength_array, z_from_point_array
from .svgplot import line_plot

__all__ = [
    "EdgeSpec",
    "Sweep",
    "EdgeCheck",
    "TableReport",
    "edge",
    "edge_names",
    "sweep",
    "sweep_csv",
    "verify_tables",
    "FIGURES",
    "emit_figure_data",
    "figure_svg",
]

_PI = np.pi
_C8 = np.cos(_PI / 8)
_S8 = np.sin(_PI / 8)

_VERTICES = {**TETRAHEDRON_VERTICES, **POLYHEDRON_VERTICES}


@dataclass(frozen=True)
class EdgeSpec:
    """One edge: the segment from vertex ``start`` to vertex ``end``, traced
    linearly as the parameter runs over ``param_range``, and the closed-form
    Schmidt coefficients along it."""

    start: str
    end: str
    param_range: tuple[float, float]
    closed_form_s: Callable[[np.ndarray], np.ndarray]

    @property
    def name(self) -> str:
        return self.start + self.end

    def point_fn(self, t: np.ndarray) -> np.ndarray:
        """Canonical points (..., 3) at parameters t (...)."""
        a = _VERTICES[self.start]
        b = _VERTICES[self.end]
        lo, hi = self.param_range
        return a + (np.asarray(t, dtype=float) - lo)[..., None] * ((b - a) / (hi - lo))


@dataclass(frozen=True, eq=False)
class Sweep:
    """One edge evaluated on a parameter grid, as columns.

    Row i of every array belongs to ``param[i]``: ``points`` (n, 3),
    ``s`` (n, 4) with the Schmidt coefficients descending, and
    ``strength``, complex ``g1``, ``g2`` and boolean ``is_pe``, each (n,).
    """

    name: str
    param: np.ndarray
    points: np.ndarray
    s: np.ndarray
    strength: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    is_pe: np.ndarray


def _stack(*columns) -> np.ndarray:
    """Stack per-parameter expressions (scalars or arrays) into (..., k)."""
    columns = np.broadcast_arrays(*[np.asarray(c, dtype=float) for c in columns])
    return np.stack(columns, axis=-1)


def _a2a1_s(t: np.ndarray) -> np.ndarray:
    return _stack(
        np.cos(t) / 2,
        (1 + np.sin(t)) / 2,
        (1 - np.sin(t)) / 2,
        np.cos(t) / 2,
    )


def _oa3_s(t: np.ndarray) -> np.ndarray:
    return _stack(
        np.sqrt(1 + 3 * np.cos(_PI * t / 2) ** 2) / 2,
        np.sin(_PI * t / 2) / 2,
        np.sin(_PI * t / 2) / 2,
        np.sin(_PI * t / 2) / 2,
    )


def _lq_s(t: np.ndarray) -> np.ndarray:
    return _stack(
        (np.cos(t / 2) ** 2 + np.sin(t) / 2) / np.sqrt(2),
        (np.cos(t / 2) ** 2 - np.sin(t) / 2) / np.sqrt(2),
        (np.sin(t / 2) ** 2 + np.sin(t) / 2) / np.sqrt(2),
        (np.sin(t) / 2 - np.sin(t / 2) ** 2) / np.sqrt(2),
    )


def _qp_s(t: np.ndarray) -> np.ndarray:
    return _stack(
        np.sqrt(_C8**4 * np.cos(t / 2) ** 2 + _S8**4 * np.sin(t / 2) ** 2),
        1 / (2 * np.sqrt(2)) + 0.0 * t,
        1 / (2 * np.sqrt(2)) + 0.0 * t,
        np.sqrt(_S8**4 * np.cos(t / 2) ** 2 + _C8**4 * np.sin(t / 2) ** 2),
    )


# The fifteen edges, built once: the six tetrahedron edges, then the nine
# polyhedron edges.
_SPECS = (
    EdgeSpec(
        "O", "A1", (0.0, _PI),
        lambda t: _stack(np.cos(t / 2), np.sin(t / 2), 0.0 * t, 0.0 * t),
    ),
    EdgeSpec(
        "O", "A2", (0.0, _PI / 2),
        lambda t: _stack(
            np.cos(t / 2) ** 2,
            np.sin(t) / 2,
            np.sin(t) / 2,
            np.sin(t / 2) ** 2,
        ),
    ),
    EdgeSpec("A2", "A1", (0.0, _PI / 2), _a2a1_s),
    EdgeSpec(
        "A2", "A3", (0.0, _PI / 2),
        lambda t: _stack(
            0.5 + 0.0 * t, 0.5 + 0.0 * t, 0.5 + 0.0 * t, 0.5 + 0.0 * t
        ),
    ),
    EdgeSpec("O", "A3", (0.0, 1.0), _oa3_s),
    EdgeSpec("A1", "A3", (0.0, 1.0), _oa3_s),
    EdgeSpec("L", "Q", (0.0, _PI / 4), _lq_s),
    EdgeSpec("L", "M", (0.0, _PI / 4), _lq_s),
    EdgeSpec("A2", "M", (0.0, _PI / 4), _a2a1_s),
    EdgeSpec("A2", "Q", (0.0, _PI / 4), _a2a1_s),
    EdgeSpec("Q", "P", (0.0, _PI / 4), _qp_s),
    EdgeSpec("M", "N", (0.0, _PI / 4), _qp_s),
    EdgeSpec(
        "P", "N", (0.0, _PI / 2),
        lambda t: _stack(
            np.sqrt(
                _C8**4 * np.cos(_PI / 8 + t / 2) ** 2
                + _S8**4 * np.sin(_PI / 8 + t / 2) ** 2
            ),
            np.sqrt(
                _S8**4 * np.cos(_PI / 8 + t / 2) ** 2
                + _C8**4 * np.sin(_PI / 8 + t / 2) ** 2
            ),
            1 / (2 * np.sqrt(2)) + 0.0 * t,
            1 / (2 * np.sqrt(2)) + 0.0 * t,
        ),
    ),
    EdgeSpec(
        "L", "N", (0.0, _PI / 4),
        lambda t: _stack(
            np.sqrt(1 + np.cos(t) ** 2 - np.sin(2 * t)) / 2,
            np.sqrt(1 + np.cos(t) ** 2 + np.sin(2 * t)) / 2,
            np.sin(t) / 2,
            np.sin(t) / 2,
        ),
    ),
    EdgeSpec(
        "A2", "P", (0.0, _PI / 4),
        lambda t: _stack(
            np.sqrt(1 + np.sin(t) ** 2 + np.sin(2 * t)) / 2,
            np.cos(t) / 2,
            np.cos(t) / 2,
            np.sqrt(1 + np.sin(t) ** 2 - np.sin(2 * t)) / 2,
        ),
    ),
)

TETRAHEDRON_EDGES = tuple(e.name for e in _SPECS[:6])
POLYHEDRON_EDGES = tuple(e.name for e in _SPECS[6:])

_EDGES: dict[str, EdgeSpec] = {e.name: e for e in _SPECS}


def edge_names() -> tuple[str, ...]:
    return tuple(_EDGES)


def edge(name: str) -> EdgeSpec:
    """Look up an edge by name (6 tetrahedron + 9 polyhedron edges).

    Raises:
        ValidationError: for an unknown name; the message lists valid names.
    """
    try:
        return _EDGES[name]
    except KeyError:
        raise ValidationError(
            f"unknown edge {name!r}; valid names: {', '.join(_EDGES)}"
        ) from None


def _grid(param_range: tuple[float, float], n_points: int) -> np.ndarray:
    if n_points < 2:
        raise ValidationError("n_points must be at least 2")
    return np.linspace(*param_range, n_points)


def _descending(a: np.ndarray) -> np.ndarray:
    return np.flip(np.sort(a, axis=-1), axis=-1)


def sweep(name: str, n_points: int) -> Sweep:
    """Evaluate an edge on an endpoint-inclusive uniform parameter grid.

    Coefficients come from the expansion-coefficient engine, not from the
    closed-form table; the columns hold points, sorted coefficients,
    strength, invariants and the perfect-entangler flag.
    """
    spec = edge(name)
    params = _grid(spec.param_range, n_points)
    points = spec.point_fn(params)
    s = _descending(np.abs(z_from_point_array(points)))
    g1, g2 = invariants_from_point_array(points)
    return Sweep(
        name=name,
        param=params,
        points=points,
        s=s,
        strength=schmidt_strength_array(s),
        g1=g1,
        g2=g2,
        is_pe=is_perfect_entangler_array(weyl_reduce_array(points)),
    )


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def sweep_csv(sw: Sweep) -> str:
    """CSV rendering of a sweep: 15 significant digits, LF line endings."""
    table = np.column_stack(
        [sw.param, sw.points, sw.s, sw.strength, sw.g1.real, sw.g1.imag, sw.g2]
    ).tolist()
    rows = (
        ",".join(map(_fmt, row)) + (",true" if pe else ",false")
        for row, pe in zip(table, sw.is_pe.tolist())
    )
    header = "param,c1,c2,c3,s1,s2,s3,s4,strength,g1_re,g1_im,g2,is_pe"
    return "\n".join([header, *rows]) + "\n"


@dataclass(frozen=True)
class EdgeCheck:
    """Closed-form-vs-engine deviation for one edge."""

    name: str
    max_deviation: float
    worst_param: float


@dataclass(frozen=True)
class TableReport:
    checks: tuple[EdgeCheck, ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(c.max_deviation <= self.tolerance for c in self.checks)

    @property
    def max_deviation(self) -> float:
        return max(c.max_deviation for c in self.checks)


def verify_tables(n_points: int) -> TableReport:
    """Compare engine coefficients against every closed form on a grid.

    For each edge and grid parameter the sorted engine coefficients are
    checked against the sorted closed-form values; the report carries the
    per-edge maximum absolute deviation and where it occurred.
    """
    checks = []
    for name in edge_names():
        sw = sweep(name, n_points)
        table = _descending(edge(name).closed_form_s(sw.param))
        dev = np.max(np.abs(sw.s - table), axis=-1)
        worst = int(np.argmax(dev))
        checks.append(
            EdgeCheck(
                name=name,
                max_deviation=float(dev[worst]),
                worst_param=float(sw.param[worst]),
            )
        )
    return TableReport(checks=tuple(checks), tolerance=DEFAULT_TOL.table_tol)


# Figure ids -> the curves they carry, in caption order. Each curve is
# (edge name, parameter range); OA1 is restricted to its first half, the
# other half being its mirror image.
FIGURES: dict[str, tuple[tuple[str, tuple[float, float]], ...]] = {
    "fig2": (("OA1", (0.0, _PI / 2)), ("OA2", (0.0, _PI / 2))),
    "fig3a": (("OA3", (0.0, 1.0)),),
    "fig3b": (("A2A1", (0.0, _PI / 2)),),
    "fig4a": (("A2Q", (0.0, _PI / 4)), ("A2P", (0.0, _PI / 4))),
    "fig4b": (("LQ", (0.0, _PI / 4)), ("LN", (0.0, _PI / 4))),
    "fig5a": (("QP", (0.0, _PI / 4)),),
    "fig5b": (("PN", (0.0, _PI / 2)),),
}


def _figure_series(figure: str, n_points: int):
    try:
        curves = FIGURES[figure]
    except KeyError:
        raise ValidationError(
            f"unknown figure {figure!r}; valid ids: {', '.join(FIGURES)}"
        ) from None
    series = []
    for name, param_range in curves:
        params = _grid(param_range, n_points)
        s = np.abs(z_from_point_array(edge(name).point_fn(params)))
        series.append((name, params, schmidt_strength_array(s)))
    return params, series


def emit_figure_data(figure: str, n_points: int) -> str:
    """CSV for one strength figure: param column plus one strength column
    per curve, in caption order. Curves within a figure share their
    parameter grid."""
    params, series = _figure_series(figure, n_points)
    table = np.column_stack([params] + [vals for _, _, vals in series]).tolist()
    header = "param," + ",".join(name for name, _, _ in series)
    return "\n".join([header, *(",".join(map(_fmt, row)) for row in table)]) + "\n"


def figure_svg(figure: str, n_points: int) -> str:
    """SVG line plot of the same data emit_figure_data produces."""
    _, series = _figure_series(figure, n_points)
    return _strength_plot(series, figure)


def edge_svg(sw: Sweep) -> str:
    """SVG line plot of one edge's strength profile."""
    return _strength_plot([(sw.name, sw.param, sw.strength)], f"edge {sw.name}")


def _strength_plot(series, title: str) -> str:
    return line_plot(series, title=title, xlabel="parameter (rad)", ylabel="Schmidt strength")
