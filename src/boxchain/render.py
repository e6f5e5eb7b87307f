"""Visualization of box chain recurrent models.

For maps of C^2 the phase space is four-real-dimensional, so the model
is sketched on a dynamically significant slice: the unstable manifold
of a saddle fixed point p, parameterized by the plane through

    gamma_N(z) = f^N(p + (z / l1^N) v1),

where l1 is the unstable eigenvalue and v1 = (l1, 1) its eigenvector.
gamma_N is evaluated in double precision on deviations u = (x, y) - p,
whose roundoff stays relative to |u| instead of growing like |l1|^N,
and satisfies the conjugation f(gamma(z)) = gamma(l1 z) up to a
residual that shrinks with N.  Everything here is explicitly
non-rigorous: pictures guide the construction, the graph and bounds
carry the guarantees.

Pixel coloring: boxes of the recurrent model hit by the pixel's point
are mapped through a palette (one gray per component, sized-ordered,
evenly spaced in [40, 200]; black when several components hit; white
when none), then pixels that look like members of the forward-bounded
set (orbit stays within the escape radius for kplus_iters steps) are
lightened by +40, clamped at 255.  A pixel's colour depends on its own
point only, so the pixels are coloured in blocks of consecutive pixels
(``_RENDER_BLOCK``), each block's points made, looked up and iterated on
their own: a render holds the image and one block's temporaries, at any
resolution, and its bytes do not depend on the block size.

Images are 8-bit and written as binary PPM (P6) always, or PNG via a
built-in encoder over the same pixel buffer; repeated renders of the
same inputs are byte-identical.
"""

from __future__ import annotations

import cmath
import math
import struct
import zlib
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .ia import UsageError
from .maps import FixedPointInfo, MapModel, fixed_points, forward_orbits
from .chain_graph import RecurrentModel, components_at_points

__all__ = [
    "RenderConfig",
    "Image",
    "unstable_parameterization",
    "pick_saddle",
    "render_slice",
    "render_plane",
    "component_palette",
]


@dataclass(frozen=True)
class RenderConfig:
    """Window in the parameter plane (or phase plane) plus knobs."""

    center: complex = 0j
    half_width: float = 1.0
    half_height: Optional[float] = None
    resolution: int = 256
    kplus_iters: int = 100
    escape_radius: Optional[float] = None  # defaults to 2 R'
    kplus_lighten: bool = True

    def validate(self, model: MapModel) -> "RenderConfig":
        if self.resolution < 1:
            raise UsageError("resolution must be at least 1")
        if self.kplus_lighten and self.kplus_iters < 1:
            raise UsageError("kplus_iters must be at least 1")
        if not cmath.isfinite(self.center):
            raise UsageError("window centre must be finite")
        er = self.escape_radius
        if er is None:
            er = 2.0 * model.r_prime
        if not er >= model.r_prime:
            raise UsageError("escape radius must be at least R'")
        hh = self.half_height if self.half_height is not None else self.half_width
        if not (0.0 < self.half_width < math.inf and 0.0 < hh < math.inf):
            raise UsageError("window half-width and half-height must be finite and positive")
        return replace(self, half_height=hh, escape_radius=er)


class Image:
    """8-bit grayscale pixel grid, row-major, top row first."""

    def __init__(self, width: int, height: int, pixels: bytearray):
        if len(pixels) != width * height:
            raise UsageError("pixel buffer size mismatch")
        self.width = width
        self.height = height
        self.pixels = pixels

    def at(self, row: int, col: int) -> int:
        return self.pixels[row * self.width + col]

    def rgb_bytes(self) -> bytes:
        out = bytearray(3 * len(self.pixels))
        out[0::3] = self.pixels
        out[1::3] = self.pixels
        out[2::3] = self.pixels
        return bytes(out)

    def ppm_bytes(self) -> bytes:
        header = f"P6\n{self.width} {self.height}\n255\n".encode("ascii")
        return header + self.rgb_bytes()

    def png_bytes(self) -> bytes:
        def chunk(tag: bytes, data: bytes) -> bytes:
            return (
                struct.pack(">I", len(data))
                + tag
                + data
                + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
            )

        ihdr = struct.pack(">IIBBBBB", self.width, self.height, 8, 2, 0, 0, 0)
        rgb = self.rgb_bytes()
        stride = 3 * self.width
        raw = b"".join(
            b"\x00" + rgb[y * stride : (y + 1) * stride] for y in range(self.height)
        )
        return (
            b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw, 9))
            + chunk(b"IEND", b"")
        )

    def save(self, path: str) -> None:
        data = self.png_bytes() if str(path).lower().endswith(".png") else self.ppm_bytes()
        with open(path, "wb") as fh:
            fh.write(data)


# ---------------------------------------------------------------------------
# unstable manifold parameterization
# ---------------------------------------------------------------------------


def pick_saddle(model: MapModel) -> FixedPointInfo:
    """Deterministic saddle choice: largest unstable eigenvalue modulus."""
    saddles = [f for f in fixed_points(model) if f.classification == "saddle"]
    if not saddles:
        raise UsageError("map has no saddle fixed point")
    return max(
        saddles,
        key=lambda f: (max(abs(l) for l in f.eigenvalues),
                       (-f.location[0].real, -f.location[0].imag)),
    )


def unstable_parameterization(
    model: MapModel, saddle: FixedPointInfo, depth: int = 20
) -> Callable:
    """Evaluator z -> point in C^2 approximating the natural unstable
    parameterization at the saddle; f(gamma(z)) ~ gamma(l1 z).

    Pure double-precision point arithmetic on the saddle data of
    ``fixed_points``; vectorized over numpy arrays of z.  Non-rigorous
    by construction.
    """
    if not model.is_henon:
        raise UsageError("unstable slices are defined for Henon kinds only")
    if saddle.classification != "saddle":
        raise UsageError("unstable parameterization needs a saddle fixed point")
    if depth < 1:
        raise UsageError("depth must be at least 1")
    a = model.a
    z = saddle.location[0]
    lam = max(saddle.eigenvalues, key=abs)
    lam_pow = lam ** depth
    # quadratic manifold correction h: f(p + wv + w^2 h) = gamma(lam w) +
    # O(w^3), i.e. (lam^2 I - Df_p) h = (lam^2, 0); cuts the seed defect
    # from O(w^2) to O(w^3) so the iteration starts on-manifold.
    det = (lam * lam - 2.0 * z) * lam * lam + a
    h_x = lam * lam * lam * lam / det
    h_y = lam * lam / det

    def evaluate(zs):
        # iterate deviations u = (x, y) - p: u' = 2z ux - a uy + ux^2.
        # All terms scale with |u|, so roundoff stays relative to |u|
        # instead of being amplified by the unstable eigenvalue, and the
        # saddle is an exact fixed point of the deviation form.
        w = np.asarray(zs, dtype=complex) / lam_pow
        w2 = w * w
        ux = w * lam + w2 * h_x  # (z / l1^N) v1 + (z / l1^N)^2 h
        uy = w + w2 * h_y
        two_z = 2.0 * z
        for _ in range(depth):
            ux, uy = two_z * ux - a * uy + ux * ux, ux
        return z + ux, z + uy

    evaluate.unstable_eigenvalue = lam
    return evaluate


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def component_palette(n_components: int) -> list[int]:
    """Evenly spaced gray levels in [40, 200], component 0 darkest slot."""
    if n_components <= 0:
        return []
    if n_components == 1:
        return [40]
    return [40 + round(160 * k / (n_components - 1)) for k in range(n_components)]


_RENDER_BLOCK = 1 << 14  # consecutive pixels coloured at a time


def _paint(gamma: RecurrentModel, model: MapModel, config: RenderConfig, point) -> Image:
    """The image of the window: pixels row-major, top row first, each
    coloured by its point ``point(x, y)``, one complex array per
    coordinate from the window values x and y of a block of pixels.  The
    pixels are coloured ``_RENDER_BLOCK`` at a time, so the temporaries
    are those of one block whatever the resolution."""
    n_comp = int(gamma.comp.max()) + 1 if gamma.n_vertices else 0
    palette = np.array(component_palette(n_comp), dtype=np.uint8)
    res = config.resolution
    xs = config.center.real + (2.0 * np.arange(res) + 1.0 - res) / res * config.half_width
    ys = config.center.imag + (res - 2.0 * np.arange(res) - 1.0) / res * config.half_height
    pixels = bytearray(res * res)
    for first in range(0, len(pixels), _RENDER_BLOCK):
        stop = min(first + _RENDER_BLOCK, len(pixels))
        row, col = np.divmod(np.arange(first, stop), res)
        pt = point(xs[col], ys[row])
        hit, comp = components_at_points(gamma, np.column_stack(model.point_axes(pt)))
        hits = np.bincount(hit, minlength=len(row))
        pix = np.where(hits == 0, 255, 0).astype(np.uint8)  # no component: white, several: black
        one = hits[hit] == 1
        pix[hit[one]] = palette[comp[one]]
        if config.kplus_lighten:
            bounded, _, _ = forward_orbits(
                model, pt, config.kplus_iters, config.escape_radius, multiplier=False
            )
            pix[bounded] = np.minimum(pix[bounded], 215) + 40
        pixels[first:stop] = pix.tobytes()
    return Image(res, res, pixels)


def render_slice(
    gamma: RecurrentModel,
    model: MapModel,
    saddle: FixedPointInfo,
    config: RenderConfig,
) -> Image:
    """Sketch the model on the parameterized unstable manifold of a
    saddle fixed point (Henon kinds)."""
    config = config.validate(model)
    evaluate = unstable_parameterization(model, saddle)
    return _paint(gamma, model, config, lambda x, y: evaluate(x + 1j * y))


def render_plane(gamma: RecurrentModel, model: MapModel, config: RenderConfig) -> Image:
    """Direct phase-plane render: C for the 1-D kinds, R^2 (x, y) for
    the real Henon map."""
    if model.kind == "henon_complex":
        raise UsageError("render_plane needs a 1-D map or the real Henon map")
    config = config.validate(model)
    return _paint(gamma, model, config, lambda x, y: model.point_from_axes((x, y)))
