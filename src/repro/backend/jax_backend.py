"""JAX kernel backend: ``jit`` + ``vmap`` over the walker axis.

Importing this module requires jax; the registry only imports it when
``REPRO_BACKEND=jax`` (or an explicit ``get_backend("jax")``) asks for
it, and converts the ImportError into a
:class:`~repro.backend.base.BackendUnavailableError` with install
instructions.  A jax-less host never pays for this file.

Numerics policy (docs/backends.md): ``jax_enable_x64`` is switched on at
import so every kernel accumulates in float64, matching the reference
backend's accumulation precision.  The backend still declares
``exact_match = False`` — XLA is free to fuse multiply-adds and reorder
contractions, and ``jnp.exp`` is not guaranteed bitwise against libm's
``math.exp``, so ulp-level divergence (which can flip an individual
Metropolis comparison) is expected.  Parity is therefore gated by the
tolerance-bounded differential suites plus the per-kernel gates in
tests/backend/, not by the exact trace-equality tests.

Each kernel is a module-level function over plain arrays, jitted once
with the structural knobs (periodicity, orthogonality, self-row index)
as static arguments; the distance and SPO kernels are written
per-walker/per-point and lifted over the batch axis with ``vmap``.
Lattice geometry is splatted into (inverse, axes, shifts) arrays before
entering jit — a ``CrystalLattice`` object never crosses the trace
boundary.
"""

# repro: backend-pure

from __future__ import annotations

from functools import partial

import jax

jax.config.update("jax_enable_x64", True)

import jax.numpy as jnp  # noqa: E402

from repro.backend.base import KernelBackend  # noqa: E402
from repro.distances.base import BIG_DISTANCE  # noqa: E402
from repro.metrics.registry import METRICS  # noqa: E402
from repro.splines.cubic1d import (  # noqa: E402
    _A as _A1, _dA as _dA1, _d2A as _d2A1)
from repro.splines.bspline3d import (  # noqa: E402
    _A as _A3, _dA as _dA3, _d2A as _d2A3)

#: stand-in shift table for cells that never take the skewed branch
#: (orthogonal=True makes it dead code, but jit still wants an array).
_NO_SHIFTS = jnp.zeros((1, 3))
_EYE3 = jnp.eye(3)


def _lat_args(lattice):
    """Splat a CrystalLattice into jit-safe (traced..., static...) args."""
    if not lattice.periodic:
        return _EYE3, _EYE3, _NO_SHIFTS, False, True
    shifts = (_NO_SHIFTS if lattice._image_shifts is None
              else jnp.asarray(lattice._image_shifts))
    return (jnp.asarray(lattice.inverse), jnp.asarray(lattice.axes),
            shifts, True, lattice.orthogonal)


def _min_image(dr, inverse, axes, shifts, orthogonal):
    """Minimum image over (..., 3) displacements (traced branch-free)."""
    s = dr @ inverse
    s = s - jnp.round(s)
    d0 = s @ axes
    if orthogonal:
        return d0
    cand = d0[..., None, :] + shifts
    d2 = jnp.sum(cand * cand, axis=-1)
    idx = jnp.argmin(d2, axis=-1)
    return jnp.take_along_axis(cand, idx[..., None, None], axis=-2)[..., 0, :]


# -- distance kernels ------------------------------------------------------------
def _row1(soa_w, rk_w, inverse, axes, shifts, periodic, orthogonal):
    """One walker's row: (3, n) SoA vs its (3,) center -> (n,), (3, n)."""
    dr = soa_w.astype(jnp.float64) - rk_w.astype(jnp.float64)[:, None]
    if periodic:
        dr = _min_image(dr.T, inverse, axes, shifts, orthogonal).T
    r = jnp.sqrt(dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2])
    return r, dr


@partial(jax.jit, static_argnames=("periodic", "orthogonal", "self_index"))
def _aa_row(soa, rk, inverse, axes, shifts, periodic, orthogonal, self_index):
    r, dr = jax.vmap(_row1, in_axes=(0, 0, None, None, None, None, None))(
        soa, rk, inverse, axes, shifts, periodic, orthogonal)
    if self_index >= 0:
        r = r.at[:, self_index].set(BIG_DISTANCE)
        dr = dr.at[:, :, self_index].set(0.0)
    return r, dr


@partial(jax.jit, static_argnames=("periodic", "orthogonal"))
def _ab_row(src_soa, rk, inverse, axes, shifts, periodic, orthogonal):
    return jax.vmap(_row1, in_axes=(None, 0, None, None, None, None, None))(
        src_soa, rk, inverse, axes, shifts, periodic, orthogonal)


def _pairs_aa1(R_w, inverse, axes, shifts, periodic, orthogonal):
    n = R_w.shape[0]
    dr = R_w[None, :, :] - R_w[:, None, :]  # dr[k, i] = r_i - r_k
    if periodic:
        dr = _min_image(dr, inverse, axes, shifts, orthogonal)
    dist = jnp.sqrt(jnp.sum(dr * dr, axis=-1))
    idx = jnp.arange(n)
    dist = dist.at[idx, idx].set(BIG_DISTANCE)
    disp = jnp.transpose(dr, (0, 2, 1))
    disp = disp.at[idx, :, idx].set(0.0)
    return dist, disp


@partial(jax.jit, static_argnames=("periodic", "orthogonal"))
def _aa_pairs(R, inverse, axes, shifts, periodic, orthogonal):
    return jax.vmap(_pairs_aa1, in_axes=(0, None, None, None, None, None))(
        R.astype(jnp.float64), inverse, axes, shifts, periodic, orthogonal)


def _pairs_ab1(src_R, R_w, inverse, axes, shifts, periodic, orthogonal):
    dr = src_R[None, :, :] - R_w[:, None, :]  # dr[k, I] = R_I - r_k
    if periodic:
        dr = _min_image(dr, inverse, axes, shifts, orthogonal)
    dist = jnp.sqrt(jnp.sum(dr * dr, axis=-1))
    return dist, jnp.transpose(dr, (0, 2, 1))


@partial(jax.jit, static_argnames=("periodic", "orthogonal"))
def _ab_pairs(src_R, R, inverse, axes, shifts, periodic, orthogonal):
    return jax.vmap(_pairs_ab1,
                    in_axes=(None, 0, None, None, None, None, None))(
        src_R, R.astype(jnp.float64), inverse, axes, shifts, periodic,
        orthogonal)


# -- 1D spline kernels -----------------------------------------------------------
def _locate1(x0, h, nintervals, r):
    t = (r - x0) / h
    i = jnp.clip(jnp.floor(t).astype(jnp.int64), 0, nintervals - 1)
    return i, t - i


@partial(jax.jit, static_argnames=("nintervals",))
def _bspline1d_v(coefs, x0, h, nintervals, r):
    i, u = _locate1(x0, h, nintervals, r.astype(jnp.float64))
    v = jnp.zeros_like(u)
    for k in range(4):
        row = _A1[k]
        b = row[0] + u * (row[1] + u * (row[2] + u * row[3]))
        v = v + coefs[i + k] * b
    return v


@partial(jax.jit, static_argnames=("nintervals",))
def _bspline1d_vgl(coefs, x0, h, nintervals, r):
    i, u = _locate1(x0, h, nintervals, r.astype(jnp.float64))
    v = jnp.zeros_like(u)
    dv = jnp.zeros_like(u)
    d2v = jnp.zeros_like(u)
    for k in range(4):
        b = _A1[k][0] + u * (_A1[k][1] + u * (_A1[k][2] + u * _A1[k][3]))
        db = _dA1[k][0] + u * (_dA1[k][1] + u * _dA1[k][2])
        d2b = _d2A1[k][0] + u * _d2A1[k][1]
        ck = coefs[i + k]
        v = v + ck * b
        dv = dv + ck * db
        d2v = d2v + ck * d2b
    return v, dv / h, d2v / (h * h)


@partial(jax.jit, static_argnames=("nintervals",))
def _functor_v(coefs, x0, h, nintervals, rcut, r):
    r = r.astype(jnp.float64)
    mask = r < rcut
    # Pre-mask to 0 before Horner: masked-out rows go up to BIG_DISTANCE
    # and would overflow the polynomial into inf before jnp.where runs.
    rs = jnp.where(mask, r, 0.0)
    return jnp.where(mask, _bspline1d_v(coefs, x0, h, nintervals, rs), 0.0)


@partial(jax.jit, static_argnames=("nintervals",))
def _functor_vgl(coefs, x0, h, nintervals, rcut, r):
    r = r.astype(jnp.float64)
    mask = r < rcut
    rs = jnp.where(mask, r, 0.0)
    v, dv, d2v = _bspline1d_vgl(coefs, x0, h, nintervals, rs)
    zero = jnp.zeros_like(r)
    return (jnp.where(mask, v, zero), jnp.where(mask, dv, zero),
            jnp.where(mask, d2v, zero))


# -- 3D B-spline SPO kernels -----------------------------------------------------
def _weights3(u):
    """Scalar offset -> (value, d, d2) segment-weight rows, (4,) each."""
    pu = jnp.stack([jnp.ones_like(u), u, u * u, u * u * u])
    return _A3 @ pu, _dA3 @ pu, _d2A3 @ pu


def _locate3(cell_inverse, dims, r_w):
    frac = r_w @ cell_inverse
    frac = frac - jnp.floor(frac)
    dimsf = jnp.asarray(dims, dtype=jnp.float64)
    t = frac * dimsf
    i = jnp.minimum(t.astype(jnp.int64), dimsf.astype(jnp.int64) - 1)
    return i, t - i


def _gather3(coefs, i, norb):
    return jax.lax.dynamic_slice(
        coefs, (i[0], i[1], i[2], 0), (4, 4, 4, norb)).astype(jnp.float64)


def _spline3d_v1(coefs, cell_inverse, dims, r_w):
    i, u = _locate3(cell_inverse, dims, r_w)
    a, _, _ = _weights3(u[0])
    b, _, _ = _weights3(u[1])
    c, _, _ = _weights3(u[2])
    blocks = _gather3(coefs, i, coefs.shape[-1])
    return jnp.einsum("i,j,k,ijkm->m", a, b, c, blocks)


@partial(jax.jit, static_argnames=("dims",))
def _spline3d_v(coefs, cell_inverse, dims, r):
    return jax.vmap(_spline3d_v1, in_axes=(None, None, None, 0))(
        coefs, cell_inverse, dims, r.astype(jnp.float64))


def _spline3d_vgl1(coefs, cell_inverse, dims, r_w):
    nx, ny, nz = dims
    i, u = _locate3(cell_inverse, dims, r_w)
    a, da, d2a = _weights3(u[0])
    b, db, d2b = _weights3(u[1])
    c, dc, d2c = _weights3(u[2])
    blocks = _gather3(coefs, i, coefs.shape[-1])

    def contract(wa, wb, wc):
        return jnp.einsum("i,j,k,ijkm->m", wa, wb, wc, blocks)

    v = contract(a, b, c)
    gu = jnp.stack([
        contract(da, b, c) * nx,
        contract(a, db, c) * ny,
        contract(a, b, dc) * nz,
    ])  # (3, m), fractional units
    huxy = contract(da, db, c) * (nx * ny)
    huxz = contract(da, b, dc) * (nx * nz)
    huyz = contract(a, db, dc) * (ny * nz)
    hu = jnp.stack([
        jnp.stack([contract(d2a, b, c) * (nx * nx), huxy, huxz]),
        jnp.stack([huxy, contract(a, d2b, c) * (ny * ny), huyz]),
        jnp.stack([huxz, huyz, contract(a, b, d2c) * (nz * nz)]),
    ])  # (3, 3, m)
    g = jnp.einsum("ab,bm->ma", cell_inverse, gu)
    lap = jnp.einsum("ia,abm,ib->m", cell_inverse, hu, cell_inverse)
    return v, g, lap


@partial(jax.jit, static_argnames=("dims",))
def _spline3d_vgl(coefs, cell_inverse, dims, r):
    return jax.vmap(_spline3d_vgl1, in_axes=(None, None, None, 0))(
        coefs, cell_inverse, dims, r.astype(jnp.float64))


def _spline3d_vgh1(coefs, cell_inverse, dims, r_w):
    nx, ny, nz = dims
    i, u = _locate3(cell_inverse, dims, r_w)
    a, da, d2a = _weights3(u[0])
    b, db, d2b = _weights3(u[1])
    c, dc, d2c = _weights3(u[2])
    blocks = _gather3(coefs, i, coefs.shape[-1])

    def contract(wa, wb, wc):
        return jnp.einsum("i,j,k,ijkm->m", wa, wb, wc, blocks)

    v = contract(a, b, c)
    gu = jnp.stack([
        contract(da, b, c) * nx,
        contract(a, db, c) * ny,
        contract(a, b, dc) * nz,
    ])  # (3, m), fractional units
    huxy = contract(da, db, c) * (nx * ny)
    huxz = contract(da, b, dc) * (nx * nz)
    huyz = contract(a, db, dc) * (ny * nz)
    hu = jnp.stack([
        jnp.stack([contract(d2a, b, c) * (nx * nx), huxy, huxz]),
        jnp.stack([huxy, contract(a, d2b, c) * (ny * ny), huyz]),
        jnp.stack([huxz, huyz, contract(a, b, d2c) * (nz * nz)]),
    ])  # (3, 3, m)
    g = jnp.einsum("ab,bm->ma", cell_inverse, gu)
    h = jnp.einsum("ia,abm,jb->mij", cell_inverse, hu, cell_inverse)
    return v, g, h


@partial(jax.jit, static_argnames=("dims", "tile"))
def _spline3d_vgh_tiled(coefs, cell_inverse, dims, r, tile):
    # ``tile`` is accepted for signature parity with the numpy kernel
    # but deliberately unused: XLA already fuses the ten channel
    # contractions into one pass over the gathered blocks, which is the
    # very blocking the numpy tile loop reconstructs by hand.
    del tile
    return jax.vmap(_spline3d_vgh1, in_axes=(None, None, None, 0))(
        coefs, cell_inverse, dims, r.astype(jnp.float64))


# -- determinant / accept kernels ------------------------------------------------
@jax.jit
def _det_ratio(phi, ainv_col):
    return jnp.dot(phi.astype(jnp.float64), ainv_col.astype(jnp.float64))


@jax.jit
def _det_ratios_vp(phi, ainv_cols):
    return jnp.einsum("mj,jm->m", phi.astype(jnp.float64),
                      ainv_cols.astype(jnp.float64))


@partial(jax.jit, static_argnames=("drift",))
def _accept_mask(rho, log_t, uniforms, drift):
    if drift:
        A = jnp.minimum(1.0, rho * rho * jnp.exp(log_t))
    else:
        A = jnp.minimum(1.0, rho * rho)
    return (uniforms < A) & (rho != 0.0)


# -- fused whole-sweep pipeline ---------------------------------------------------
def _cols_vgl(r, fidx, coefs, x0s, hs, nints, rcuts):
    """Cutoff-functor (u, du, d2u) over (W, cols) distances where column
    ``j`` uses functor ``fidx[j]`` (coefs padded to a common length).

    The per-column grid scalars broadcast against the walker axis; the
    pre-mask-to-0 trick is the same as :func:`_functor_v` (masked
    columns sit at BIG_DISTANCE and would overflow the Horner form).
    """
    x0 = x0s[fidx]
    h = hs[fidx]
    nint = nints[fidx]
    rcut = rcuts[fidx]
    mask = r < rcut
    rs = jnp.where(mask, r, 0.0)
    t = (rs - x0) / h
    i = jnp.clip(jnp.floor(t).astype(jnp.int64), 0, nint - 1)
    u = t - i
    v = jnp.zeros_like(u)
    dv = jnp.zeros_like(u)
    d2v = jnp.zeros_like(u)
    for k in range(4):
        b = _A1[k][0] + u * (_A1[k][1] + u * (_A1[k][2] + u * _A1[k][3]))
        db = _dA1[k][0] + u * (_dA1[k][1] + u * _dA1[k][2])
        d2b = _d2A1[k][0] + u * _d2A1[k][1]
        ck = coefs[fidx, i + k]
        v = v + ck * b
        dv = dv + ck * db
        d2v = d2v + ck * d2b
    zero = jnp.zeros_like(u)
    return (jnp.where(mask, v, zero), jnp.where(mask, dv / h, zero),
            jnp.where(mask, d2v / (h * h), zero))


def _ee_row(R, rk, k, inverse, axes, shifts, periodic, orthogonal):
    """Electron-electron row of electron ``k``: (W, n) distances and
    (W, n, 3) displacements r_j - r_k, self entry masked to (BIG, 0)."""
    dr = R - rk[:, None, :]
    if periodic:
        dr = _min_image(dr, inverse, axes, shifts, orthogonal)
    r = jnp.sqrt(jnp.sum(dr * dr, axis=-1))
    r = r.at[:, k].set(BIG_DISTANCE)
    dr = dr.at[:, k].set(0.0)
    return r, dr


def _ei_row(src, rk, inverse, axes, shifts, periodic, orthogonal):
    """Electron-ion row: (W, nion) distances and (W, nion, 3)
    displacements R_I - r_k against the shared fixed ions."""
    dr = src[None, :, :] - rk[:, None, :]
    if periodic:
        dr = _min_image(dr, inverse, axes, shifts, orthogonal)
    return jnp.sqrt(jnp.sum(dr * dr, axis=-1)), dr


def _limited_drift_jax(tau, cap_units, g):
    """Branch-free norm-capped drift (the loop path's data-dependent
    branch becomes a where)."""
    drift = tau * g
    norm = jnp.sqrt(jnp.sum(drift * drift, axis=-1))
    cap = cap_units * jnp.sqrt(tau)
    scale = jnp.where(norm > cap, cap / jnp.maximum(norm, 1e-300), 1.0)
    return drift * scale[:, None]


@partial(jax.jit,
         static_argnames=("use_drift", "periodic", "orthogonal"))
def _sweep_all(R, chi_all, uniforms, tau, cap_units,
               g2_of, f2mat, c2, x02, h2, ni2, rc2,
               src, f1idx, c1, x01, h1, ni1, rc1,
               inverse, axes, shifts, use_drift, periodic, orthogonal):
    """The whole PbyP sweep as ONE jitted computation.

    ``lax.fori_loop`` carries (positions, per-walker accept counts,
    per-move accept history) across the n electron moves, so host
    dispatch is paid once per sweep instead of ~14x per electron.  Rows
    are recomputed on the fly from the carried positions — equivalent
    (to tolerance) to the host tables' incrementally updated storage.
    """
    nw, n, _ = R.shape

    def j2_eval(r, dr, k):
        fidx = f2mat[g2_of[k], g2_of]
        u, du, _ = _cols_vgl(r, fidx, c2, x02, h2, ni2, rc2)
        usum = jnp.sum(u, axis=-1)
        grad = jnp.einsum("wj,wjd->wd", du / r, dr)
        return usum, grad

    def j1_eval(r, dr):
        u, du, _ = _cols_vgl(r, f1idx, c1, x01, h1, ni1, rc1)
        usum = jnp.sum(u, axis=-1)
        grad = jnp.einsum("wj,wjd->wd", du / r, dr)
        return usum, grad

    def body(k, carry):
        R, counts, hist = carry
        rk = R[:, k]
        chi = chi_all[:, k]
        r2o, dr2o = _ee_row(R, rk, k, inverse, axes, shifts, periodic,
                            orthogonal)
        r1o, dr1o = _ei_row(src, rk, inverse, axes, shifts, periodic,
                            orthogonal)
        u2o, g2o = j2_eval(r2o, dr2o, k)
        u1o, g1o = j1_eval(r1o, dr1o)
        if use_drift:
            drift_old = _limited_drift_jax(tau, cap_units, g2o + g1o)
            rnew = rk + drift_old + chi
        else:
            rnew = rk + chi
        r2n, dr2n = _ee_row(R, rnew, k, inverse, axes, shifts, periodic,
                            orthogonal)
        r1n, dr1n = _ei_row(src, rnew, inverse, axes, shifts, periodic,
                            orthogonal)
        u2n, g2n = j2_eval(r2n, dr2n, k)
        u1n, g1n = j1_eval(r1n, dr1n)
        rho = jnp.exp(-(u2n - u2o)) * jnp.exp(-(u1n - u1o))
        if use_drift:
            drift_new = _limited_drift_jax(tau, cap_units, g2n + g1n)
            back = rk - rnew - drift_new
            fwd = rnew - rk - drift_old
            log_t = (-jnp.sum(back * back, axis=-1)
                     + jnp.sum(fwd * fwd, axis=-1)) / (2.0 * tau)
            A = jnp.minimum(1.0, rho * rho * jnp.exp(log_t))
        else:
            A = jnp.minimum(1.0, rho * rho)
        acc = (uniforms[:, k] < A) & (rho != 0.0)
        R = R.at[:, k].set(jnp.where(acc[:, None], rnew, rk))
        counts = counts + acc.astype(jnp.int64)
        hist = hist.at[k].set(acc)
        return R, counts, hist

    counts0 = jnp.zeros(nw, dtype=jnp.int64)
    hist0 = jnp.zeros((n, nw), dtype=bool)
    return jax.lax.fori_loop(0, n, body, (R, counts0, hist0))


class JaxBackend(KernelBackend):
    """jit+vmap kernels; float64 accumulation, tolerance-gated parity."""

    name = "jax"
    exact_match = False

    def aa_row(self, soa, rk, lattice, self_index=-1):
        inverse, axes, shifts, periodic, ortho = _lat_args(lattice)
        return _aa_row(soa, rk, inverse, axes, shifts, periodic, ortho,
                       int(self_index))

    def ab_row(self, src_soa, rk, lattice):
        inverse, axes, shifts, periodic, ortho = _lat_args(lattice)
        return _ab_row(src_soa, rk, inverse, axes, shifts, periodic, ortho)

    def aa_pairs(self, R, lattice):
        inverse, axes, shifts, periodic, ortho = _lat_args(lattice)
        return _aa_pairs(R, inverse, axes, shifts, periodic, ortho)

    def ab_pairs(self, src_R, R, lattice):
        inverse, axes, shifts, periodic, ortho = _lat_args(lattice)
        return _ab_pairs(src_R, R, inverse, axes, shifts, periodic, ortho)

    def functor_v(self, coefs, x0, h, nintervals, rcut, r):
        return _functor_v(coefs, float(x0), float(h), int(nintervals),
                          float(rcut), jnp.atleast_1d(jnp.asarray(r))
                          ).reshape(jnp.shape(r))

    def functor_vgl(self, coefs, x0, h, nintervals, rcut, r):
        shape = jnp.shape(r)
        u, du, d2u = _functor_vgl(coefs, float(x0), float(h),
                                  int(nintervals), float(rcut),
                                  jnp.atleast_1d(jnp.asarray(r)))
        return u.reshape(shape), du.reshape(shape), d2u.reshape(shape)

    def bspline1d_v(self, coefs, x0, h, nintervals, r):
        return _bspline1d_v(coefs, float(x0), float(h), int(nintervals),
                            jnp.asarray(r))

    def bspline1d_vgl(self, coefs, x0, h, nintervals, r):
        return _bspline1d_vgl(coefs, float(x0), float(h), int(nintervals),
                              jnp.asarray(r))

    def spline3d_v(self, coefs, cell_inverse, dims, r):
        return _spline3d_v(coefs, jnp.asarray(cell_inverse),
                           tuple(int(d) for d in dims), r)

    def spline3d_vgl(self, coefs, cell_inverse, dims, r):
        return _spline3d_vgl(coefs, jnp.asarray(cell_inverse),
                             tuple(int(d) for d in dims), r)

    def spline3d_vgh_tiled(self, coefs, cell_inverse, dims, r, tile):
        return _spline3d_vgh_tiled(coefs, jnp.asarray(cell_inverse),
                                   tuple(int(d) for d in dims), r,
                                   int(tile) if tile else 0)

    def det_ratio(self, phi, ainv_col):
        return float(_det_ratio(phi, ainv_col))

    def det_ratios_vp(self, phi, ainv_cols):
        return _det_ratios_vp(phi, ainv_cols)

    def exp_rows(self, x):
        return jnp.exp(jnp.asarray(x, dtype=jnp.float64))

    def accept_mask(self, rho, log_t, uniforms):
        drift = log_t is not None
        lt = log_t if drift else jnp.zeros_like(jnp.asarray(rho))
        return _accept_mask(jnp.asarray(rho), jnp.asarray(lt),
                            jnp.asarray(uniforms), drift)

    # -- fused sweep pipeline --------------------------------------------------------
    def sweep_step(self, plan, k):
        """Per-electron fused step: the reference pipeline with every
        inner kernel routed through this backend's jitted primitives."""
        from repro.batched.sweep import fused_sweep_step
        with self.scope():
            return fused_sweep_step(self, plan, k)

    def sweep_run(self, plan):
        """Whole-sweep jit: ONE ``_sweep_all`` dispatch moves all n
        electrons, then the host state (batch positions, SoA mirror,
        tables, move log) is resynchronized once.

        The first call per plan builds the device payload (functor
        banks, lattice args, group indices) and caches it on the plan;
        component sets the payload builder does not understand fall back
        to the per-step pipeline, which is still one backend call per
        electron, and bump the ``jax_sweep_fallback`` counter once.  Payload staging and the post-sweep host writeback
        are host code by design and live in
        :mod:`repro.backend.jax_sweep_host`, outside this module's
        backend-pure scope.
        """
        from repro.backend.jax_sweep_host import (
            build_sweep_payload, finalize_sweep,
        )
        from repro.batched.sweep import fused_sweep_run

        payload = plan._jax_payload
        if payload is None:
            payload = plan._jax_payload = build_sweep_payload(plan) or False
            if payload is False:
                METRICS.count("jax_sweep_fallback")  # once per plan
        if payload is False:
            with self.scope():
                return fused_sweep_run(self, plan)
        batch = plan.batch
        ws = plan.workspace
        R, counts, hist = _sweep_all(
            jnp.asarray(batch.R), jnp.asarray(ws.chi_all),
            jnp.asarray(ws.uniforms), plan.tau, plan.drift_cap,
            *payload["traced"], use_drift=plan.use_drift,
            periodic=payload["periodic"],
            orthogonal=payload["orthogonal"])
        return finalize_sweep(self, plan, R, counts, hist)
