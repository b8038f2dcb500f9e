import dataclasses
import re
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoqubit import ValidationError, edge, edge_names, emit_figure_data, figure_svg, sweep, verify_tables
from twoqubit import svgplot
from twoqubit.canonical import (POLYHEDRON_VERTICES, TETRAHEDRON_VERTICES, ClassData,
                                canonical_gates_array)
from twoqubit.edges import (FIGURES, POLYHEDRON_EDGES, TETRAHEDRON_EDGES, Sweep, _csv_rows,
                            write_edge_svg, write_sweep_csv)
from twoqubit.linops import CHUNK
from twoqubit.schmidt import schmidt_strength

PI = np.pi

# binary entropy of sin^2(pi/8); the strength at the OA1 quarter points
H_EIGHTH = 0.6008760366928562


def test_edge_lookup_and_names():
    assert len(edge_names()) == 15
    assert len(TETRAHEDRON_EDGES) == 6 and len(POLYHEDRON_EDGES) == 9
    with pytest.raises(ValidationError, match="valid names"):
        edge("OA5")


def test_edge_endpoints_hit_vertices():
    vertices = dict(TETRAHEDRON_VERTICES)
    vertices.update(POLYHEDRON_VERTICES)
    for name in edge_names():
        spec = edge(name)
        lo, hi = spec.param_range
        start = spec.point_fn(np.array(lo))
        end = spec.point_fn(np.array(hi))
        assert np.allclose(start, vertices[spec.start], atol=1e-12), name
        assert np.allclose(end, vertices[spec.end], atol=1e-12), name


def test_edge_point_examples():
    assert np.allclose(edge("OA1").point_fn(np.array(PI / 2)), [PI / 2, 0, 0])
    assert np.allclose(edge("QP").point_fn(np.array(0.0)), [PI / 4, PI / 4, 0])
    s = edge("A2A3").closed_form_s(np.array(0.3))
    assert np.allclose(s, 0.5, atol=1e-15)


def test_closed_forms_nonnegative_and_normalized():
    for name in edge_names():
        spec = edge(name)
        t = np.linspace(*spec.param_range, 301)
        s = spec.closed_form_s(t)
        assert np.min(s) >= -1e-12, name
        assert np.max(np.abs(np.sum(s**2, axis=-1) - 1.0)) <= 1e-10, name


def test_verify_tables_passes():
    report = verify_tables(97)
    assert report.passed
    assert max(c.value for c in report.checks) <= 1e-10
    assert len(report.checks) == 15


def test_verify_tables_endpoints_only():
    assert verify_tables(2).passed


def test_verify_tables_catches_injected_fault(monkeypatch):
    import twoqubit.edges as edges_mod

    true_fn = edges_mod.z_from_point_array

    def flipped(c):
        z = true_fn(c)
        z = z.copy()
        z[..., 1] = np.conj(z[..., 1])  # corrupt the relative phase
        return 0.9 * z  # and the normalization

    monkeypatch.setattr(edges_mod, "z_from_point_array", flipped)
    report = verify_tables(9)
    assert not report.passed


def test_chunked_verify_tables_equals_the_one_shot_checks():
    # ties among the deviations keep the earlier row across chunks too
    n = 2 * CHUNK + 17
    for name, check in zip(edge_names(), verify_tables(n).checks):
        spec = edge(name)
        t = np.linspace(*spec.param_range, n)
        table = np.flip(np.sort(spec.closed_form_s(t), axis=-1), axis=-1)
        deviation = np.max(np.abs(ClassData.from_points(spec.point_fn(t)).s - table), axis=-1)
        row = int(np.argmax(deviation))
        assert (check.name, check.value, check.where) == (name, deviation[row], t[row])


def test_verify_tables_keeps_the_first_nan_over_the_chunks(monkeypatch):
    # per edge, a large deviation in the first chunk and a NaN row in the
    # second and in the third: the second chunk's NaN row is the one named
    import twoqubit.edges as edges_mod

    true_fn, calls = edges_mod.z_from_point_array, []

    def planted(c):
        z, k = true_fn(c).copy(), len(calls) % 3
        calls.append(k)
        if k == 0:
            z[7] *= 0.5
        else:
            z[3 + k] = np.nan
        return z

    monkeypatch.setattr(edges_mod, "z_from_point_array", planted)
    n = 3 * CHUNK
    for name, check in zip(edge_names(), verify_tables(n).checks):
        assert np.isnan(check.value) and not check.passed
        assert check.where == np.linspace(*edge(name).param_range, n)[CHUNK + 4]
    assert len(calls) == 45


def test_a2m_matches_a2a1_restriction():
    t = np.linspace(0, PI / 4, 50)
    a2m = edge("A2M")
    a2a1 = edge("A2A1")
    assert np.allclose(a2m.point_fn(t), a2a1.point_fn(t), atol=1e-15)
    # the engine, not the shared closed form: A2M is the first half of A2A1
    first_half = sweep("A2A1", 99)
    assert np.allclose(sweep("A2M", 50).s, first_half.s[:50], atol=1e-15)


def _same(t):
    return t


# (edge a, edge b, the parameter of a's line that carries b's point at t)
@pytest.mark.parametrize("pair", [
    ("OA3", "A1A3", _same),
    ("LQ", "LM", _same),
    ("A2M", "A2Q", _same),
    ("QP", "MN", _same),
    ("QP", "PN", lambda t: PI / 4 + t),
    ("A2P", "LN", lambda t: PI / 2 - t),
    ("A2A1", "OA2", lambda t: PI / 2 - t),
])
def test_shared_coefficient_pairs(pair):
    a, b, to_a = pair
    sw = sweep(b, 64)
    # images under a chamber symmetry with the same |z|, compared through the
    # engine on a's line, extended past its end vertex where the map leaves it
    shared = ClassData.from_points(edge(a).point_fn(to_a(sw.param)))
    assert np.max(np.abs(shared.s - sw.s)) <= 1e-12
    if to_a is _same:
        assert edge(a).param_range == edge(b).param_range


@pytest.mark.parametrize("name", edge_names())
def test_sweep_columns_are_class_data_of_its_points(name):
    sw = sweep(name, 33)
    data = ClassData.from_points(edge(name).point_fn(sw.param))
    for column in ("points", "g1", "g2", "s", "strength", "schmidt_number", "is_pe"):
        assert np.array_equal(getattr(sw, column), getattr(data, column)), column


def test_sweep_inherits_the_class_data_builders():
    # Sweep adds a name and a grid to ClassData; the builders it inherits give
    # the plain ClassData columns, with neither of them
    points = sweep("QP", 5).points
    u = canonical_gates_array(points)
    built = [(Sweep.from_points(points), ClassData.from_points(points)),
             (Sweep.from_unitaries(u), ClassData.from_unitaries(u))]
    for data, expected in built:
        assert type(data) is ClassData
        for field in dataclasses.fields(ClassData):
            assert np.array_equal(getattr(data, field.name), getattr(expected, field.name))


def test_sweep_rows_consistent():
    sw = sweep("LN", 33)
    assert sw.name == "LN"
    assert sw.param.shape == sw.strength.shape == sw.g1.shape == sw.g2.shape == (33,)
    assert sw.points.shape == (33, 3) and sw.s.shape == (33, 4) and sw.is_pe.shape == (33,)
    for s, strength in zip(sw.s, sw.strength):
        assert abs(strength - schmidt_strength(s)) <= 1e-12
        assert s[0] >= s[1] >= s[2] >= s[3] >= -1e-15


def test_sweep_oa1_three_points():
    strengths = sweep("OA1", 3).strength
    assert np.allclose(strengths, [0.0, 1.0, 0.0], atol=1e-12)


def test_sweep_oa1_five_points_symmetric():
    strengths = sweep("OA1", 5).strength
    assert np.allclose(strengths, [0.0, H_EIGHTH, 1.0, H_EIGHTH, 0.0], atol=1e-12)
    for k in range(5):
        assert abs(strengths[k] - strengths[4 - k]) <= 1e-12


def test_sweep_a2a3_constant_two():
    sw = sweep("A2A3", 11)
    assert np.max(np.abs(sw.strength - 2.0)) <= 1e-12
    assert np.allclose(sw.s, 0.5, atol=1e-12)


def test_sweep_controlled_unitary_column():
    # OA1 is the controlled-unitary line; A2A3 keeps all four coefficients 1/2
    assert sweep("OA1", 9).controlled_unitary.all()
    assert not sweep("A2A3", 9).controlled_unitary.any()


def test_sweep_pn_symmetric_nonmonotonic():
    strengths = sweep("PN", 101).strength
    assert np.max(np.abs(strengths - strengths[::-1])) <= 1e-10
    diffs = np.diff(strengths)
    assert np.any(diffs > 0) and np.any(diffs < 0)


def test_sweep_rejects_bad_input():
    with pytest.raises(ValidationError):
        sweep("OA1", 1)
    with pytest.raises(ValidationError):
        sweep("nope", 5)


MONOTONIC_EDGES = ["OA2", "A2A1", "OA3", "A1A3", "LQ", "LM", "A2M", "A2Q", "QP", "MN", "LN", "A2P"]


@pytest.mark.parametrize("name", MONOTONIC_EDGES)
def test_strength_monotonic_on_grid(name):
    strengths = sweep(name, 101).strength
    diffs = np.diff(strengths)
    assert np.all(diffs > 0) or np.all(diffs < 0), name


def test_strength_monotonic_oa1_first_half():
    sw = sweep("OA1", 101)
    strengths = sw.strength[sw.param <= PI / 2 + 1e-12]
    assert np.all(np.diff(strengths) > 0)


def test_polyhedron_edges_strength_range_and_pe():
    for name in POLYHEDRON_EDGES:
        sw = sweep(name, 64)
        assert np.all(sw.strength >= 1.0 - 1e-10), name
        assert np.all(sw.strength <= 2.0 + 1e-10), name
        assert np.all(sw.is_pe), name


def test_sweep_csv_format(tmp_path):
    out = tmp_path / "a2a3.csv"
    write_sweep_csv("A2A3", 3, out)
    text = out.read_bytes().decode()
    lines = text.split("\n")
    assert lines[0] == "param,c1,c2,c3,s1,s2,s3,s4,strength,g1_re,g1_im,g2,is_pe"
    assert len(lines) == 5 and lines[-1] == ""
    row = lines[1].split(",")
    assert len(row) == 13
    assert row[-1] == "true"
    assert row[8] == "2"
    assert "\r" not in text


def _per_value_rows(columns, flags=None):
    """CSV rows formatted one value at a time: the oracle for the block renderer."""
    rows = [",".join(f"{x:.15g}" for x in row) for row in np.column_stack(columns).tolist()]
    if flags is not None:
        rows = [row + ("," + ("true" if pe else "false")) for row, pe in zip(rows, flags)]
    return "".join(row + "\n" for row in rows)


def _per_value_csv(header, columns, flags=None):
    return header + "\n" + _per_value_rows(columns, flags)


def _first_difference(got, expected):
    """None for equal texts, else the number and the two versions of their
    first differing line; pytest's own diff of two long texts takes minutes."""
    for k, pair in enumerate(zip_longest(got.split("\n"), expected.split("\n"))):
        if pair[0] != pair[1]:
            return k, *pair
    return None


def _sweep_oracle(sw):
    """The sweep CSV of a :class:`Sweep`'s columns, formatted one value at a time."""
    return _per_value_csv(
        "param,c1,c2,c3,s1,s2,s3,s4,strength,g1_re,g1_im,g2,is_pe",
        [sw.param, sw.points, sw.s, sw.strength, sw.g1.real, sw.g1.imag, sw.g2],
        sw.is_pe.tolist(),
    )


# sizes one row short of a block edge, on it and one row past it, after one
# block and after four, and a single row in a third and in a ninth block
@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1,
                               4 * CHUNK - 1, 4 * CHUNK, 4 * CHUNK + 1, 8 * CHUNK + 1])
@pytest.mark.parametrize("name", ["PN", "OA1"])
def test_sweep_csv_equals_the_per_value_oracle(name, n, tmp_path):
    sw, out = sweep(name, n), tmp_path / "sweep.csv"
    params, strength = write_sweep_csv(name, n, out)
    assert _first_difference(out.read_bytes().decode(), _sweep_oracle(sw)) is None
    assert np.array_equal(params, sw.param) and np.array_equal(strength, sw.strength)


def test_sweep_command_writes_sweep_csv(tmp_path, capsys):
    from twoqubit.cli import main

    out = tmp_path / "pn.csv"
    assert main(["sweep", "PN", "--n", "4097", "--out", str(out), "--svg"]) == 0
    sw = sweep("PN", 4097)
    assert _first_difference(out.read_bytes().decode(), _sweep_oracle(sw)) is None
    assert (_polylines(out.with_suffix(".svg").read_bytes().decode())
            == _per_point_polylines([("PN", sw.param, sw.strength)]))


@pytest.mark.parametrize("figure", FIGURES)
def test_figure_csv_equals_the_per_value_oracle(figure):
    param_range, names = FIGURES[figure]
    params = np.linspace(*param_range, 4097)
    strengths = [ClassData.from_points(edge(name).point_fn(params)).strength for name in names]
    expected = _per_value_csv("param," + ",".join(names), [params, *strengths])
    assert _first_difference(emit_figure_data(figure, 4097), expected) is None


def _assert_rows_equal_the_oracle(values, width=1):
    """_csv_rows of ``values`` laid out as rows of ``width`` columns, without
    flags and with alternating ones, against the per-value oracle."""
    table = np.asarray(values, dtype=float).reshape(-1, width)
    columns = list(table.T)
    flags = np.arange(len(table)) % 2 == 0
    for rows_flags in (None, flags):
        assert _first_difference(_csv_rows(columns, rows_flags),
                                 _per_value_rows(columns, rows_flags)) is None


_ROWS = st.integers(1, 4).flatmap(lambda width: st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=width, max_size=width),
    min_size=1, max_size=12))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ROWS)
@example([[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-4, 9.999999999999999]])
def test_csv_rows_equal_the_per_value_oracle_on_any_double(rows):
    _assert_rows_equal_the_oracle(rows, width=len(rows[0]))


def _ulp_neighbours(x, count=60):
    """x and its ``count`` nearest doubles on each side."""
    below = [x]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -np.inf))
    above = [x]
    for _ in range(count):
        above.append(np.nextafter(above[-1], np.inf))
    return below[::-1] + above[1:]


@pytest.mark.parametrize("j", range(-6, 3))
def test_csv_rows_near_powers_of_ten(j):
    # where log10 may be one off and the 15 digits may carry to the next decade
    near = np.array(_ulp_neighbours(10.0**j))
    _assert_rows_equal_the_oracle(np.stack([near, -near], axis=-1), width=2)


@pytest.mark.parametrize("shift", [-4e-15, 4e-15])
def test_csv_rows_near_powers_of_ten_with_log10_off(monkeypatch, shift):
    # a log10 a few ulps off puts the values next to 10^j in the wrong decade;
    # the exact product, not its rounded digits, must send them to %.15g
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    near = np.array([_ulp_neighbours(10.0**j) for j in range(-4, 2)]).ravel()
    _assert_rows_equal_the_oracle(np.stack([near, -near], axis=-1), width=2)


@pytest.mark.parametrize("scale", [1.0, 2.0**-4, 2.0**-10])
def test_csv_rows_on_dyadic_ties(scale):
    # 1 + k/2^17 times 10^14 is an exact tie x.5 for k = 4 mod 8: the digits
    # round half-even, as CPython rounds
    values = (1 + np.arange(0, 9 * 2**17, 4) / 2**17) * scale
    assert (Fraction(1 + 4 / 2**17) * 10**14).denominator == 2
    _assert_rows_equal_the_oracle(values, width=4)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 10.0])
def test_csv_rows_just_below_a_decade(scale):
    # 1 - r 1e-14 rounds to a string of nines or carries to 1 at 15 digits
    r = np.arange(2000, dtype=float)
    _assert_rows_equal_the_oracle((1 - r * 1e-14) * scale, width=4)


@pytest.mark.parametrize("gate", [1e-4, 10.0])
def test_csv_rows_at_the_gates(gate):
    # just inside and just outside the range printed as integers, in ulps and
    # in steps of the 15th digit
    steps = gate * (1 + np.arange(-200, 201) * 1e-16)
    _assert_rows_equal_the_oracle(np.concatenate([_ulp_neighbours(gate), steps]), width=2)


def test_csv_rows_take_every_route_in_one_call():
    # zeros, a tiny value, values of 10 and above and non-finite ones keep
    # their literal or %.15g route, beside digit templates with and without
    # leading and trailing zeros
    values = [0.0, -0.0, 2.5e-05, -3e-300, 12.5, -1e20, 10.0, np.inf, -np.inf, np.nan,
              1.5, -2.0, 0.0001, 0.000123, 1.00000000000001, -0.25]
    expected = ("0\n-0\n2.5e-05\n-3e-300\n12.5\n-1e+20\n10\ninf\n-inf\nnan\n"
                "1.5\n-2\n0.0001\n0.000123\n1.00000000000001\n-0.25\n")
    assert _csv_rows([np.array(values)]) == expected == _per_value_rows([np.array(values)])
    _assert_rows_equal_the_oracle(values, width=4)


def _per_point_polylines(series):
    """Each curve's polyline points as formatted one point at a time, with
    line_plot's ranges and pixel formulas in scalar arithmetic."""
    xs = np.concatenate([x for _, x, _ in series]).tolist()
    ys = np.concatenate([y for _, _, y in series]).tolist()
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = svgplot._WIDTH - svgplot._MARGIN_L - svgplot._MARGIN_R
    plot_h = svgplot._HEIGHT - svgplot._MARGIN_T - svgplot._MARGIN_B

    def px(x):
        return svgplot._MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return svgplot._MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    return [" ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x.tolist(), y.tolist()))
            for _, x, y in series]


def _polylines(svg):
    return re.findall(r'<polyline points="([^"]*)"', svg)


def test_edge_svg_points_equal_the_per_point_oracle(tmp_path):
    sw = sweep("PN", 4097)
    out = tmp_path / "pn.svg"
    write_edge_svg("PN", sw.param, sw.strength, out)
    assert (_polylines(out.read_bytes().decode())
            == _per_point_polylines([("PN", sw.param, sw.strength)]))


def test_figure_svg_points_equal_the_per_point_oracle():
    params = np.linspace(0, PI / 2, 501)
    series = [(name, params, ClassData.from_points(edge(name).point_fn(params)).strength)
              for name in FIGURES["fig2"][1]]
    assert len(series) == 2
    assert _polylines(figure_svg("fig2", 501)) == _per_point_polylines(series)


def test_figure_catalog_curves():
    assert FIGURES["fig2"][1] == ("OA1", "OA2")
    assert FIGURES["fig4a"][1] == ("A2Q", "A2P")
    assert FIGURES["fig4b"][1] == ("LQ", "LN")
    assert FIGURES["fig5b"][1] == ("PN",)


def test_fig2_columns():
    text = emit_figure_data("fig2", 33)
    lines = text.strip().split("\n")
    assert lines[0] == "param,OA1,OA2"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    oa1, oa2 = data[:, 1], data[:, 2]
    assert abs(np.max(oa1) - 1.0) <= 1e-12  # CNOT peak
    assert abs(oa2[0]) <= 1e-12 and abs(oa2[-1] - 2.0) <= 1e-12
    assert np.all(np.diff(oa2) > 0)


def test_fig3a_endpoints():
    text = emit_figure_data("fig3a", 21)
    data = np.array([[float(v) for v in line.split(",")] for line in text.strip().split("\n")[1:]])
    assert abs(data[0, 1]) <= 1e-12
    assert abs(data[-1, 1] - 2.0) <= 1e-12


@pytest.mark.parametrize("figure", FIGURES)
def test_figure_columns_equal_the_sweeps(figure):
    n = 1001
    rows = [line.split(",") for line in emit_figure_data(figure, n).splitlines()]
    param_range, names = FIGURES[figure]
    for k, name in enumerate(names, start=1):
        if param_range == edge(name).param_range:
            column = [row[k] for row in rows[1:]]
            assert column == [f"{x:.15g}" for x in sweep(name, n).strength.tolist()], name


@pytest.mark.parametrize("n_points", [1, 0, True, 2.5, "3", None, 2**63], ids=repr)
@pytest.mark.parametrize("entry", [lambda n: sweep("OA1", n), verify_tables,
                                   lambda n: emit_figure_data("fig2", n)],
                         ids=["sweep", "verify_tables", "emit_figure_data"])
def test_grid_size_refused(entry, n_points):
    # numpy indexes with int64, so 2**63 points are refused too
    rule = f"be at most {2**63 - 1}" if n_points == 2**63 else "be an integer of at least 2"
    message = f"n_points must {rule}, got {n_points!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        entry(n_points)


def test_figure_unknown_id():
    with pytest.raises(ValidationError):
        emit_figure_data("fig9", 10)


def test_figure_svg_well_formed():
    import xml.etree.ElementTree as ET

    svg = figure_svg("fig5b", 33)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert svg.startswith('<?xml version="1.0"')
    assert "polyline" in svg and "PN" in svg
    assert figure_svg("fig5b", 33) == svg  # deterministic
