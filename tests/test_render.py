"""Render tests: parameterization functional equation, determinism,
pixel-classification soundness, escape heuristic, image formats."""

import dataclasses
import zlib
from pathlib import Path

import numpy as np
import pytest

from boxchain import cli, render
from boxchain.ia import UsageError
from boxchain.maps import MapModel, fixed_points, forward_orbits
from boxchain.boxtree import init_root
from boxchain.chain_graph import build_edges, recurrent_model, scc_decompose
from boxchain.render import (
    RenderConfig,
    component_palette,
    pick_saddle,
    render_plane,
    render_slice,
    unstable_parameterization,
)
from support_graphs import traced_peak
from support_trees import live_ids


QUAD_MODEL = Path(__file__).parent / "data" / "quad_uniform3.txt"


def per31():
    return MapModel("henon_complex", c="-1.17", a="0.3", r_prime=2.01)


def quad_c0():
    return MapModel("quad_poly", c="0", r_prime=2.0)


def small_gamma(model, depth=4):
    tree = init_root(model)
    for _ in range(depth):
        tree.subdivide(lambda lid: True)
        tree.prune_escaping(5)
    g = build_edges(tree, model, tree.epsilon_min() / 1000.0)
    return recurrent_model(g, scc_decompose(g))


# ---------------------------------------------------------------------------
# unstable parameterization
# ---------------------------------------------------------------------------


def test_gamma_at_zero_is_saddle():
    m = per31()
    sad = pick_saddle(m)
    for depth in (1, 5, 20):
        ev = unstable_parameterization(m, sad, depth)
        x, y = ev(np.array([0j]))
        assert abs(x[0] - sad.location[0]) < 1e-9
        assert abs(y[0] - sad.location[1]) < 1e-9


def test_gamma_functional_equation_residual():
    m = per31()
    sad = pick_saddle(m)
    ev = unstable_parameterization(m, sad, 20)
    rng = np.random.default_rng(1)
    zs = rng.uniform(-1, 1, 600) + 1j * rng.uniform(-1, 1, 600)
    zs = zs[np.abs(zs) <= 1.0]
    gx, gy = ev(zs)
    fx = gx * gx + m.c - m.a * gy
    fy = gx
    lx, ly = ev(ev.unstable_eigenvalue * zs)
    res = np.maximum(
        np.maximum(np.abs(fx.real - lx.real), np.abs(fx.imag - lx.imag)),
        np.maximum(np.abs(fy.real - ly.real), np.abs(fy.imag - ly.imag)),
    )
    assert res.max() < 1e-6


def test_gamma_convergence_monotone_to_floor():
    m = per31()
    sad = pick_saddle(m)
    rng = np.random.default_rng(3)
    zs = rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40)
    zs = zs[np.abs(zs) <= 1.0]
    prev = None
    diffs = []
    for depth in range(5, 26):
        ev = unstable_parameterization(m, sad, depth)
        x, y = ev(zs)
        if prev is not None:
            diffs.append(
                float(np.maximum(np.abs(x - prev[0]), np.abs(y - prev[1])).max())
            )
        prev = (x, y)
    for a, b in zip(diffs, diffs[1:]):
        assert b < a or b < 1e-12


def test_parameterization_rejects_non_saddle():
    m = per31()
    sink = [f for f in fixed_points(m) if f.classification == "sink"][0]
    with pytest.raises(UsageError):
        unstable_parameterization(m, sink, 10)
    with pytest.raises(UsageError):
        unstable_parameterization(quad_c0(), pick_saddle(m), 10)


# ---------------------------------------------------------------------------
# K+ heuristic
# ---------------------------------------------------------------------------


def test_kplus_far_point_escapes_quickly():
    m = per31()
    er = 2.0 * m.r_prime
    assert not forward_orbits(m, (10 + 0j, 10 + 0j), 2, er)[0].size


def test_kplus_sink_point_always_bounded():
    m = per31()
    sink = [f for f in fixed_points(m) if f.classification == "sink"][0]
    assert forward_orbits(m, sink.location, 500, 2.0 * m.r_prime)[0].size


def test_kplus_origin_alternate_basilica():
    m = MapModel("henon_complex", c="-1.1875", a="0.15", r_prime=1.9)
    assert forward_orbits(m, (0j, 0j), 100, 2.0 * m.r_prime)[0].size


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_render_plane_determinism_and_formats():
    m = quad_c0()
    gamma = small_gamma(m, 4)
    cfg = RenderConfig(resolution=48, half_width=2.2)
    img1 = render_plane(gamma, m, cfg)
    img2 = render_plane(gamma, m, cfg)
    assert img1.ppm_bytes() == img2.ppm_bytes()
    ppm = img1.ppm_bytes()
    assert ppm.startswith(b"P6\n48 48\n255\n")
    assert len(ppm) == len(b"P6\n48 48\n255\n") + 3 * 48 * 48
    png = img1.png_bytes()
    assert png.startswith(b"\x89PNG\r\n\x1a\n")
    idat = png[png.index(b"IDAT") + 4 :]
    raw = zlib.decompress(idat[: len(idat) - 12])
    assert len(raw) == 48 * (1 + 3 * 48)


def test_render_window_outside_v0_is_white():
    m = quad_c0()
    gamma = small_gamma(m, 3)
    cfg = RenderConfig(center=10 + 10j, half_width=1.0, resolution=16)
    img = render_plane(gamma, m, cfg)
    assert set(img.pixels) == {255}


def test_render_empty_model_is_uniform():
    m = quad_c0()
    tree = init_root(m)
    g = build_edges(tree, m, 1e-3)
    lab = scc_decompose(g)
    gamma = recurrent_model(g, lab)
    # drop everything to fake an empty model
    gamma.tree.remove_leaves(list(live_ids(gamma.tree)))
    none = np.empty(0, dtype=np.int64)
    empty = dataclasses.replace(gamma, vertex_ids=none, comp=none, n_edges=0, n_cross_edges=0)
    cfg = RenderConfig(resolution=8, half_width=1.0, kplus_lighten=False)
    img = render_plane(empty, m, cfg)
    assert set(img.pixels) == {255}


def test_pixel_classification_soundness_single_box():
    m = quad_c0()
    gamma = small_gamma(m, 4)
    tree = gamma.tree
    palette = component_palette(int(gamma.comp.max()) + 1)
    # centers of model boxes lie strictly inside exactly one box: the
    # pixel at such a center must get that component's palette entry
    for lid in gamma.vertex_ids[:12].tolist():
        box = tree.leaf_box(lid)
        cx = box.coords[0].re.mid()
        cy = box.coords[0].im.mid()
        leaves = tree.leaves_containing_point((cx, cy))
        assert leaves == [lid]
        cfg = RenderConfig(
            center=complex(cx, cy),
            half_width=1e-6,
            resolution=3,
            kplus_lighten=False,
        )
        img = render_plane(gamma, m, cfg)
        comp = int(gamma.labels[gamma.graph.row_of_leaf(lid)])
        assert img.at(1, 1) == palette[comp]


def test_render_slice_runs_and_is_deterministic():
    m = per31()
    gamma = small_gamma(m, 3)
    sad = pick_saddle(m)
    cfg = RenderConfig(resolution=24, half_width=1.0, kplus_iters=40)
    img1 = render_slice(gamma, m, sad, cfg)
    img2 = render_slice(gamma, m, sad, cfg)
    assert img1.ppm_bytes() == img2.ppm_bytes()
    assert len(img1.pixels) == 24 * 24


@pytest.mark.parametrize("block,resolution", [(1, 13), (7, 29), (None, 200)], ids=["1", "7", "default"])
def test_images_do_not_depend_on_the_block_size(monkeypatch, block, resolution):
    # each block size against one block for the whole image, at a
    # resolution of several blocks whose last block is partial
    block = block or render._RENDER_BLOCK
    assert resolution**2 > 2 * block and (block == 1 or resolution**2 % block)
    henon, quad = per31(), quad_c0()
    slice_gamma, plane_gamma = small_gamma(henon, 3), small_gamma(quad, 4)
    cfg = RenderConfig(resolution=resolution, half_width=1.0, kplus_iters=30)

    def images():
        return (
            render_slice(slice_gamma, henon, pick_saddle(henon), cfg).ppm_bytes(),
            render_plane(plane_gamma, quad, dataclasses.replace(cfg, half_width=1.2)).ppm_bytes(),
        )

    monkeypatch.setattr(render, "_RENDER_BLOCK", resolution**2)
    whole = images()
    assert all(len(set(ppm[-3 * resolution**2 :])) > 2 for ppm in whole)  # not blank
    monkeypatch.setattr(render, "_RENDER_BLOCK", block)
    assert images() == whole


def test_render_memory_does_not_grow_with_the_resolution(altper2_run):
    # the temporaries are one block's: beyond them, a larger image costs
    # its own buffer (colouring the whole image at once traces 71 MB at
    # 512^2 and 18 MB at 256^2)
    model, gamma = altper2_run.result.model, altper2_run.result.gamma
    saddle = pick_saddle(model)
    peaks = {}
    for res in (256, 512):
        _, peaks[res] = traced_peak(render_slice, gamma, model, saddle, RenderConfig(resolution=res))
    assert peaks[512] < 8 << 20, peaks
    assert peaks[512] - peaks[256] < 512 * 512 + (256 << 10), peaks


def test_saddle_pixel_gets_j_candidate_shade(altper2_run):
    # the saddle is chain recurrent, so its box is in the recurrent
    # model; the slice pixel at z = 0 must carry that component's shade
    model = altper2_run.result.model
    gamma = altper2_run.result.gamma
    sad = pick_saddle(model)
    tree = gamma.tree
    # the saddle sits on the Im = 0 grid boundary, so several closed
    # boxes contain it; all of them must carry the J-candidate label
    leaves = tree.leaves_containing_point(tree.model.point_axes(sad.location))
    assert leaves
    comps = {int(gamma.labels[gamma.graph.row_of_leaf(l)]) for l in leaves}
    assert comps == {0}
    cfg = RenderConfig(
        center=0j, half_width=1e-9, resolution=1, kplus_lighten=False
    )
    img = render_slice(gamma, model, sad, cfg)
    palette = component_palette(int(gamma.comp.max()) + 1)
    assert img.at(0, 0) == palette[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["--kplus-iters", "0"],
        ["--kplus-iters", "-3"],
        ["--window", "0,0,-1"],
        ["--window", "0,0,0"],
        ["--window", "0,0,1,-1"],
        ["--window", "nan,0,1"],
        ["--escape-radius", "nan"],
    ],
)
def test_cli_render_rejects_settings_that_make_no_picture(tmp_path, capsys, argv):
    image = tmp_path / "out.ppm"
    argv = ["render", "--model-in", str(QUAD_MODEL), "--image-out", str(image), *argv]
    assert cli.main([*argv, "--resolution", "8"]) == 2
    assert capsys.readouterr().out == "" and not image.exists()


def test_kplus_iters_unchecked_without_lightening(tmp_path):
    argv = ["--model-in", str(QUAD_MODEL), "--image-out", str(tmp_path / "out.ppm")]
    assert cli.main(["render", *argv, "--resolution", "8", "--kplus-iters", "0", "--no-kplus"]) == 0


def test_render_plane_rejects_complex_henon():
    m = per31()
    gamma = small_gamma(m, 2)
    with pytest.raises(UsageError):
        render_plane(gamma, m, RenderConfig(resolution=4))


def test_config_validation():
    m = quad_c0()
    with pytest.raises(UsageError):
        RenderConfig(resolution=0).validate(m)
    with pytest.raises(UsageError):
        RenderConfig(escape_radius=0.5).validate(m)
    cfg = RenderConfig(resolution=4).validate(m)
    assert cfg.escape_radius == 2.0 * m.r_prime
    assert cfg.half_height == cfg.half_width


def test_palette_spacing():
    assert component_palette(1) == [40]
    assert component_palette(2) == [40, 200]
    p = component_palette(5)
    assert p[0] == 40 and p[-1] == 200
    assert all(40 <= v <= 200 for v in p)
    assert component_palette(0) == []
