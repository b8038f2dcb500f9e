import numpy as np
import pytest

import twoqubit.edges as edges_mod
from twoqubit import ValidationError, edge, edge_names, emit_figure_data, figure_svg, sweep, verify_tables
from twoqubit.canonical import POLYHEDRON_VERTICES, TETRAHEDRON_VERTICES
from twoqubit.edges import FIGURES, POLYHEDRON_EDGES, TETRAHEDRON_EDGES, sweep_csv
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
    assert report.max_deviation <= 1e-10
    assert len(report.checks) == 15


def test_verify_tables_endpoints_only():
    assert verify_tables(2).passed


def test_verify_tables_catches_injected_fault(monkeypatch):
    import twoqubit.schmidt as schmidt_mod

    true_fn = schmidt_mod.z_from_point_array

    def flipped(c):
        z = true_fn(c)
        z = z.copy()
        z[..., 1] = np.conj(z[..., 1])  # corrupt the relative phase
        return 0.9 * z  # and the normalization

    monkeypatch.setattr(edges_mod, "z_from_point_array", flipped)
    report = verify_tables(9)
    assert not report.passed


def test_a2m_matches_a2a1_restriction():
    t = np.linspace(0, PI / 4, 50)
    a2m = edge("A2M")
    a2a1 = edge("A2A1")
    assert np.allclose(a2m.point_fn(t), a2a1.point_fn(t), atol=1e-15)
    assert np.allclose(a2m.closed_form_s(t), a2a1.closed_form_s(t), atol=1e-15)


@pytest.mark.parametrize("pair", [("OA3", "A1A3"), ("LQ", "LM"), ("A2M", "A2Q"), ("QP", "MN")])
def test_shared_coefficient_pairs(pair):
    a, b = (edge(name) for name in pair)
    assert a.param_range == b.param_range
    t = np.linspace(*a.param_range, 64)
    sa = np.sort(a.closed_form_s(t), axis=-1)
    sb = np.sort(b.closed_form_s(t), axis=-1)
    assert np.max(np.abs(sa - sb)) <= 1e-12


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


def test_sweep_csv_format():
    text = sweep_csv(sweep("A2A3", 3))
    lines = text.split("\n")
    assert lines[0] == "param,c1,c2,c3,s1,s2,s3,s4,strength,g1_re,g1_im,g2,is_pe"
    assert len(lines) == 5 and lines[-1] == ""
    row = lines[1].split(",")
    assert len(row) == 13
    assert row[-1] == "true"
    assert row[8] == "2"
    assert "\r" not in text


def test_figure_catalog_curves():
    assert [name for name, _ in FIGURES["fig2"]] == ["OA1", "OA2"]
    assert [name for name, _ in FIGURES["fig4a"]] == ["A2Q", "A2P"]
    assert [name for name, _ in FIGURES["fig4b"]] == ["LQ", "LN"]
    assert [name for name, _ in FIGURES["fig5b"]] == ["PN"]


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
