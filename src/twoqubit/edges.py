"""The fifteen named edges of the chamber tetrahedron and the
perfect-entangler polyhedron.

Each edge is the straight segment between two named vertices of
:mod:`canonical` (O, A1, A2, A3 or L, M, N, P, Q, A2), traced linearly over
a parameter range, together with closed-form Schmidt coefficients along
it. :func:`sweep` writes an edge's rows as CSV, evaluated ``linops.CHUNK``
at a time, each chunk (flags included) formatted by one %-format call, keeping
only the grid and its strengths, which :func:`write_edge_svg` writes as an SVG
plot a chunk of points at a time. The CSV holds what %.15g prints, but a value
with 1e-4 <= |x| < 10 prints as one integer in a literal template: numpy
computes its 15 digits exactly (Dekker's two-product, rounded half-even as
CPython rounds), and every other value keeps %.15g in the same call.
Sweeps always compute coefficients through the expansion-coefficient engine
(z_from_point); the closed forms are kept only as an independent oracle,
checked by :func:`verify_tables`, which reads only the coefficients; it
evaluates and reduces each edge a chunk at a time, holding only the grid.

The oracle compares sorted coefficients, and a chamber symmetry keeps
them (Zhang et al., PRA 67, 042313 (2003)). So the fifteen edges have
seven coefficient profiles, those of OA1, A2A3, A2A1, OA3, LQ, QP and
A2P; each other edge reuses one of them, maybe at a shifted or reflected
parameter:

* A2M and A2Q use A2A1's. A2M is the first half of A2A1, and the base
  mirror c1 -> pi - c1 maps A2A1 at parameter t onto A2Q at t. OA2 uses
  A2A1's at pi/2 - t, its base-mirror image.
* LM uses LQ's: the base mirror maps LM onto LQ.
* A1A3 uses OA3's and MN uses QP's: each is the c3 -> -c3 mirror image
  of the other edge at the same parameter, with the same |z|.
* PN uses QP's at pi/4 + t: up to a permutation of the coordinates it
  continues QP's line c1 = c2 = pi/4.
* LN uses A2P's at pi/2 - t, the c3 -> -c3 mirror image of A2P's line
  continued past P.
"""
from __future__ import annotations

import functools
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .canonical import POLYHEDRON_VERTICES, TETRAHEDRON_VERTICES, ClassData
from .linops import DEFAULT_TOL, Check, Report, as_scalar, chunks, lookup
from .schmidt import z_from_point_array
from .svgplot import line_plot

__all__ = [
    "EdgeSpec",
    "edge",
    "edge_names",
    "sweep",
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


def _stack(*columns) -> np.ndarray:
    """Stack per-parameter expressions into (..., k); scalars broadcast."""
    columns = np.broadcast_arrays(*[np.asarray(c, dtype=float) for c in columns])
    return np.stack(columns, axis=-1)


def _a2a1_s(t: np.ndarray) -> np.ndarray:
    return _stack(np.cos(t) / 2, (1 + np.sin(t)) / 2, (1 - np.sin(t)) / 2, np.cos(t) / 2)


def _oa3_s(t: np.ndarray) -> np.ndarray:
    s = np.sin(_PI * t / 2) / 2
    return _stack(np.sqrt(1 + 3 * np.cos(_PI * t / 2) ** 2) / 2, s, s, s)


def _lq_s(t: np.ndarray) -> np.ndarray:
    c, s, h, r = np.cos(t / 2) ** 2, np.sin(t / 2) ** 2, np.sin(t) / 2, np.sqrt(2)
    return _stack((c + h) / r, (c - h) / r, (s + h) / r, (h - s) / r)


def _qp_s(t: np.ndarray) -> np.ndarray:
    c, s, mid = np.cos(t / 2) ** 2, np.sin(t / 2) ** 2, 1 / (2 * np.sqrt(2))
    return _stack(np.sqrt(_C8**4 * c + _S8**4 * s), mid, mid, np.sqrt(_S8**4 * c + _C8**4 * s))


def _a2p_s(t: np.ndarray) -> np.ndarray:
    a, b = 1 + np.sin(t) ** 2, np.sin(2 * t)
    return _stack(np.sqrt(a + b) / 2, np.cos(t) / 2, np.cos(t) / 2, np.sqrt(a - b) / 2)


# The fifteen edges, built once: the six tetrahedron edges, then the nine
# polyhedron edges.
_SPECS = (
    EdgeSpec("O", "A1", (0.0, _PI), lambda t: _stack(np.cos(t / 2), np.sin(t / 2), 0.0, 0.0)),
    EdgeSpec("O", "A2", (0.0, _PI / 2), lambda t: _a2a1_s(_PI / 2 - t)),
    EdgeSpec("A2", "A1", (0.0, _PI / 2), _a2a1_s),
    EdgeSpec("A2", "A3", (0.0, _PI / 2), lambda t: np.full(np.shape(t) + (4,), 0.5)),
    EdgeSpec("O", "A3", (0.0, 1.0), _oa3_s),
    EdgeSpec("A1", "A3", (0.0, 1.0), _oa3_s),
    EdgeSpec("L", "Q", (0.0, _PI / 4), _lq_s),
    EdgeSpec("L", "M", (0.0, _PI / 4), _lq_s),
    EdgeSpec("A2", "M", (0.0, _PI / 4), _a2a1_s),
    EdgeSpec("A2", "Q", (0.0, _PI / 4), _a2a1_s),
    EdgeSpec("Q", "P", (0.0, _PI / 4), _qp_s),
    EdgeSpec("M", "N", (0.0, _PI / 4), _qp_s),
    EdgeSpec("P", "N", (0.0, _PI / 2), lambda t: _qp_s(_PI / 4 + t)),
    EdgeSpec("L", "N", (0.0, _PI / 4), lambda t: _a2p_s(_PI / 2 - t)),
    EdgeSpec("A2", "P", (0.0, _PI / 4), _a2p_s),
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
    return lookup(_EDGES, name, "edge")


def _grid(param_range: tuple[float, float], n_points: int) -> np.ndarray:
    """The endpoint-inclusive uniform grid of ``n_points`` over the range; the
    one check of a grid size, so ValidationError, as ``as_scalar`` raises it,
    for anything but an integer of at least 2."""
    return np.linspace(*param_range, as_scalar(n_points, "n_points", 2))


def _split(v):
    """Veltkamp's split of doubles v into hi + lo, each of at most 26 significant bits."""
    hi = v * 134217729.0 - (v * 134217729.0 - v)  # 2^27 + 1
    return hi, v - hi


# 10^(14 - e) at index 1 - e for e in [-5, 1], exact since 5^19 < 2^53, and its halves
_POW10 = np.array([float(10**k) for k in range(13, 20)])
_POW10_HI, _POW10_LO = _split(_POW10)
_TEN = 10 ** np.arange(15, dtype=np.int64)
_SEPARATORS = (",", "\n", ",true\n", ",false\n")
_BARE = 2 * 13 * 14 * 4
_FALLBACK = _BARE + 2 * 10 * 4


@functools.cache
def _templates() -> np.ndarray:
    """A %d template per (sign, head "d." at e = 0 or "0.", "0.0", ... at e = -1 ... -4,
    zeros after the head, separator), then the bare digits 0-9 and the fallback; built
    at the first CSV, so that commands that write none hold none of it."""
    return np.array(
        [sign + head + "0" * zeros + "%d" + sep for sign in ("", "-")
         for head in [f"{d}." for d in range(1, 10)] + ["0." + "0" * z for z in range(4)]
         for zeros in range(14) for sep in _SEPARATORS]
        + [sign + str(d) + sep for sign in ("", "-") for d in range(10) for sep in _SEPARATORS]
        + ["%.15g" + sep for sep in _SEPARATORS], dtype=object)


def _digits(x):
    """(fast, e, m): where ``fast``, m in [1e14, 1e15) is |x| 10^(14 - e) rounded
    half-even, the 15 digits that %.15g prints for x at the exponent e in [-4, 0]."""
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 10)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)  # may be one off next to 10^j
    # hi + lo is the product exactly (Dekker's two-product, Numer. Math. 18, 224
    # (1971)). Below 1e15 < 2^50 the ulp of hi is at most 1/8, so a hi that is no
    # half-integer lies farther than |lo| from one and rounds as the product does;
    # at a half-integer the sign of lo decides, and lo = 0 is a true tie, which rint
    # takes to even, as CPython does. The product, not m, must lie in [1e14, 1e15).
    hi = a * _POW10[1 - e]
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW10_HI[1 - e], _POW10_LO[1 - e]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    del a, a_hi, a_lo, p_hi, p_lo
    m = np.rint(hi)
    tie = (np.abs(hi - m) == 0.5) & (lo != 0)
    m[tie] = hi[tie] + np.copysign(0.5, lo[tie])
    fast &= (m < 1e15) & ((hi > 1e14) | ((hi == 1e14) & (lo >= 0)))
    return fast, e, m.astype(np.int64)


def _csv_rows(columns, flags=None) -> str:
    """CSV rows of equal-length columns, formatted by one %-format call as %.15g
    prints each value, with ``true`` or ``false`` after each row if ``flags`` is
    given; LF line endings. A value with 1e-4 <= |x| < 10 prints its exact digits
    (:func:`_digits`), trailing zeros dropped, as one %d in a :func:`_templates` entry;
    a zero or a digit alone takes no argument, and every other value (tiny, 10 or
    more, non-finite, or carried to the next decade) keeps %.15g in the same call."""
    table = np.column_stack(columns)
    x = table.ravel()
    fast, e, arg = _digits(x)
    lead = arg // _TEN[14]
    arg -= lead * _TEN[14] * (e == 0)  # the digits after "d."
    sign = np.signbit(x)
    zeros = 14 - np.searchsorted(_TEN[:14], arg, "right")  # 0 for e < 0
    index = ((13 * sign + np.where(e == 0, lead - 1, 8 - e)) * 14 + zeros) * 4
    del e, zeros
    bare = (x == 0) | (fast & (arg == 0))
    index[bare] = _BARE + 4 * (10 * sign + lead * fast)[bare]
    fallback = ~(fast | bare)
    index[fallback] = _FALLBACK
    # the last column ends its row: _SEPARATORS[1], or [2] and [3] for true and false
    index.reshape(table.shape)[:, -1] += 1 if flags is None else 3 - np.asarray(flags)
    strip = np.flatnonzero(fast & ~bare & (arg % 10 == 0))
    if len(strip):
        v = arg[strip]
        arg[strip] = v // _TEN[sum(v % _TEN[j] == 0 for j in range(1, 15))]
    rows = "".join(_templates()[index].tolist())
    del index, lead, sign
    if fallback.any():
        arg = arg.astype(object)
        arg[fallback] = x[fallback]
    return rows % tuple(arg[~bare].tolist())


_SWEEP_HEADER = "param,c1,c2,c3,s1,s2,s3,s4,strength,g1_re,g1_im,g2,is_pe\n"


def sweep(name: str, n_points: int, path) -> tuple[np.ndarray, np.ndarray]:
    """Write an edge's rows on an endpoint-inclusive uniform parameter grid to
    ``path`` as CSV, evaluating and writing ``linops.CHUNK`` rows at a time, and
    return the grid and its strengths, the only columns held whole.

    Coefficients come from the expansion-coefficient engine, not from the
    closed-form table. An unknown name is refused before a bad grid size, both
    with ValidationError and before ``path`` is opened.
    """
    spec = edge(name)
    params = _grid(spec.param_range, n_points)
    strength = np.empty_like(params)
    with open(path, "w", newline="\n") as f:
        f.write(_SWEEP_HEADER)
        for rows in chunks(len(params)):
            data = ClassData.from_points(spec.point_fn(params[rows]))
            f.write(_csv_rows([params[rows], data.points, data.s, data.strength,
                               data.g1.real, data.g1.imag, data.g2], data.is_pe))
            strength[rows] = data.strength
    return params, strength


def verify_tables(n_points: int) -> Report:
    """Compare engine coefficients against every closed form on a grid.

    For each edge and grid parameter the sorted engine coefficients are
    checked against the sorted closed-form values; each edge's check carries
    its maximum absolute deviation and, as ``where``, the parameter of it.
    """
    checks = []
    for name in edge_names():
        spec = edge(name)
        params = _grid(spec.param_range, n_points)
        value, where = -np.inf, 0
        for rows in chunks(len(params)):
            t = params[rows]
            engine = np.sort(np.abs(z_from_point_array(spec.point_fn(t))), axis=-1)
            deviation = np.max(np.abs(engine - np.sort(spec.closed_form_s(t), axis=-1)), axis=-1)
            row = Check.worse_row(value, deviation)
            if row is not None:
                value, where = float(deviation[row]), rows.start + row
        checks.append(Check(name, value, DEFAULT_TOL.table_tol, float(params[where]),
                            f"max deviation {value:.3e} at parameter {params[where]:.9f}"))
    return Report(tuple(checks))


# Figure ids -> (parameter range, the edges drawn over it, in caption order).
# OA1 is restricted to its first half, the other half being its mirror image.
FIGURES: dict[str, tuple[tuple[float, float], tuple[str, ...]]] = {
    "fig2": ((0.0, _PI / 2), ("OA1", "OA2")),
    "fig3a": ((0.0, 1.0), ("OA3",)),
    "fig3b": ((0.0, _PI / 2), ("A2A1",)),
    "fig4a": ((0.0, _PI / 4), ("A2Q", "A2P")),
    "fig4b": ((0.0, _PI / 4), ("LQ", "LN")),
    "fig5a": ((0.0, _PI / 4), ("QP",)),
    "fig5b": ((0.0, _PI / 2), ("PN",)),
}


def _figure_series(figure: str, n_points: int):
    param_range, names = lookup(FIGURES, figure, "figure")
    params = _grid(param_range, n_points)
    return params, [(name, params, ClassData.from_points(edge(name).point_fn(params)).strength)
                    for name in names]


def emit_figure_data(figure: str, n_points: int) -> str:
    """CSV for one strength figure: param column plus one strength column
    per curve, in caption order. Curves within a figure share their
    parameter grid."""
    params, series = _figure_series(figure, n_points)
    header = "param," + ",".join(name for name, _, _ in series) + "\n"
    columns = [params] + [vals for _, _, vals in series]
    return header + "".join([_csv_rows([c[rows] for c in columns])
                             for rows in chunks(len(params))])


def figure_svg(figure: str, n_points: int) -> str:
    """SVG line plot of the same data emit_figure_data produces."""
    f = io.StringIO()
    line_plot(f, _figure_series(figure, n_points)[1], title=figure)
    return f.getvalue()


def write_edge_svg(name: str, param: np.ndarray, strength: np.ndarray, path) -> None:
    """Write the SVG line plot of one edge's strength profile over its grid to
    ``path``, a chunk of points at a time; the twin of :func:`sweep`."""
    with open(path, "w", newline="\n") as f:
        line_plot(f, [(name, param, strength)], title=f"edge {name}")
