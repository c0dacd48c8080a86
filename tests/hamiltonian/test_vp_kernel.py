"""The SoA, walker-tiled virtual-particle ratio kernel (repro.jastrow.vp).

Gates (docs/batched_nlpp.md, "The virtual-particle row kernel"):

* ``CrystalLattice.min_image_soa`` equals ``min_image_disp`` bitwise on
  cubic/orthorhombic cells, picks an equally short image on skewed
  cells, and passes open boundaries through;
* ``ratios_vp`` of all four Jastrow components (scalar and batched J1 /
  J2) reproduces, bit for bit, the values of a pinned commit — digests
  in ``data/vp_parent_goldens.json``, re-captured once, deliberately,
  when the functor kernels moved to the per-interval monomial table
  (one gather and one Horner per point instead of the B-spline basis
  sum), so they hold that commit's bits, not the pre-kernel bodies'.
  Regenerate with ``PYTHONPATH=<checkout>/src python
  tests/hamiltonian/test_vp_kernel.py --capture <file>``, only from the
  commit whose numbers are meant to be kept.  A golden binds only where
  this host rebuilds the captured inputs bit for bit (positions, stored
  rows, spline coefficients, an ``np.exp`` probe): a different libm or
  LAPACK build skips with that reason instead of failing on a
  last-place difference the kernel did not cause;
* the per-point value does not depend on slab order (shuffled owners);
* on a triclinic cell the kernel keeps parity with ``ratio_at`` and its
  peak scratch stays under a stated multiple of one
  ``(segment, n)`` float64 block — the parent's path needed a
  ``(Nvp, n, 27, 3)`` array there;
* the J1 species visit order pinned at construction equals the
  insertion order of every workload builder.
"""

import hashlib
import json
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend import get_backend
from repro.batched import JastrowSystemSpec, WalkerBatch
from repro.core.system import QmcSystem
from repro.core.version import CodeVersion
from repro.distances.base import BIG_DISTANCE
from repro.lattice.cell import CrystalLattice
from repro.workloads import WORKLOADS, get_workload
from repro.workloads.builder import (build_system, make_j1_functors,
                                     make_j2_functors)

GOLDENS = pathlib.Path(__file__).parent / "data" / "vp_parent_goldens.json"

#: tracemalloc peak allowed inside one skewed-cell ``ratios_vp`` call, in
#: units of one ``(segment, n)`` float64 block (segment = one walker's
#: run of the slab, n = electrons): 3 displacement components, their 3
#: base copies, two generations of 3 candidates + squared norm, the best
#: norm and expression temporaries measure ~18; the parent's path needed
#: 27 * 3 * 2 = 162 for the candidate array and its square alone, times
#: the number of walkers in the slab.
SKEW_SCRATCH_BLOCKS = 24


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _by_name(components, name):
    return next(c for c in components if c.name == name)


def _functor_coefs(*components):
    return [f.spline.coefs for c in components
            for _, f in sorted(c.functors.items())]


# -- cases -------------------------------------------------------------------
def _scalar_slab(P, npts=72):
    rng = np.random.default_rng(5)
    owners = np.sort(rng.integers(0, P.n, npts))
    positions = P.lattice.wrap(
        P.R[owners] + 0.4 * rng.normal(size=(npts, 3)))
    return owners, positions


def _scalar_case(P, twf):
    """{"inputs": digest, "J1": rho, "J2": rho} for a per-walker system
    (the wavefunction evaluated first, as a driver does before the
    Hamiltonian: J1's ``u_old`` is its carried ``U``)."""
    j1, j2 = _by_name(twf.components, "J1"), _by_name(twf.components, "J2")
    twf.evaluate_log(P)
    owners, positions = _scalar_slab(P)
    rows = [np.asarray(t.dist_row_array(k))
            for t in P.distance_tables[:2] for k in range(P.n)]
    return {"inputs": _digest(positions, P.R, *rows,
                              *_functor_coefs(j1, j2),
                              np.exp(positions[:, 0])),
            "J1": j1.ratios_vp(P, owners, positions),
            "J2": j2.ratios_vp(P, owners, positions)}


def workload_case(wl_name, dtype):
    parts = build_system(get_workload(wl_name), scale=0.125, seed=9,
                         value_dtype=dtype, with_nlpp=False)
    parts.electrons.update_tables()
    return _scalar_case(parts.electrons, parts.twf)


def spec_scalar_case():
    P, twf, _ = JastrowSystemSpec(n=16, seed=7).build_scalar()
    return _scalar_case(P, twf)


def _evaluate(batch, tables, components):
    """Tables, then the wavefunction, from ``batch.R`` — the driver's
    set-up order (J1's ``u_old`` is its carried ``U``)."""
    for t in tables:
        t.evaluate(batch)
    G = np.zeros((batch.nw, batch.n, 3))
    L = np.zeros((batch.nw, batch.n))
    for c in components:
        c.evaluate_log(batch, tables, G, L)


def _batched_system(nw=4):
    spec = JastrowSystemSpec(n=16, seed=7)
    tables, components, _ = spec.build_batched(nw)
    batch = WalkerBatch.from_positions(spec.initial_positions(nw))
    _evaluate(batch, tables, components)
    rng = np.random.default_rng(6)
    npts = 30
    vw = np.repeat(np.arange(nw), npts)
    vk = np.concatenate([np.sort(rng.integers(0, spec.n, npts))
                         for _ in range(nw)])
    slab = spec.lattice.wrap(
        batch.R[vw, vk] + 0.4 * rng.normal(size=(nw * npts, 3)))
    return batch, tables, components, vw, vk, slab


def _distance_block(batch, table):
    """The padded (W, n, Np) distance block a table's rows come from:
    the stored one, or for the compute-on-the-fly table, which stores
    none, the pair pass its rows equal bit for bit."""
    if hasattr(table, "distances"):
        return table.distances
    block = np.full((batch.nw, table.n, table.np_), BIG_DISTANCE)
    block[:, :, : table.n] = get_backend().aa_pairs(batch.R, table.lattice)[0]
    return block


def spec_batched_case():
    batch, tables, components, vw, vk, slab = _batched_system()
    j1, j2 = _by_name(components, "J1"), _by_name(components, "J2")
    return {"inputs": _digest(slab, batch.R,
                              *(_distance_block(batch, t) for t in tables),
                              *_functor_coefs(j1, j2), np.exp(slab[:, 0])),
            "J1": j1.ratios_vp(batch, tables, vw, vk, slab),
            "J2": j2.ratios_vp(batch, tables, vw, vk, slab)}


CASES = {}
for _wl in ("NiO-32", "Be-64"):
    for _tag, _dt in (("fp64", np.float64), ("fp32", np.float32)):
        CASES[f"{_wl}-scalar-{_tag}"] = (workload_case, _wl, _dt)
CASES["spec-scalar-fp64"] = (spec_scalar_case,)
CASES["spec-batched-fp64"] = (spec_batched_case,)


def capture() -> dict:
    out = {}
    for case_id, (fn, *args) in CASES.items():
        case = fn(*args)
        out[case_id] = {"inputs": case["inputs"],
                        "J1": _digest(case["J1"]),
                        "J2": _digest(case["J2"])}
    return out


# -- parent-commit goldens ---------------------------------------------------
@pytest.mark.parametrize("case_id", sorted(CASES))
def test_ratios_vp_bitwise_equal_to_parent_commit(case_id, sanitize):
    golden = json.loads(GOLDENS.read_text())["cases"][case_id]
    fn, *args = CASES[case_id]
    case = fn(*args)
    if case["inputs"] != golden["inputs"]:
        pytest.skip("this host does not rebuild the captured inputs bit "
                    "for bit (libm/LAPACK differ); the goldens do not bind")
    assert np.all(case["J1"] > 0) and np.all(case["J2"] > 0)
    assert _digest(case["J1"]) == golden["J1"]
    assert _digest(case["J2"]) == golden["J2"]


def test_unsorted_owners_in_a_crowd_slab():
    batch, tables, components, vw, vk, slab = _batched_system()
    perm = np.random.default_rng(11).permutation(len(vw))
    assert np.any(np.diff(vw[perm]) < 0)  # genuinely unsorted
    for c in components:
        sorted_rho = c.ratios_vp(batch, tables, vw, vk, slab)
        shuffled = c.ratios_vp(batch, tables, vw[perm], vk[perm], slab[perm])
        np.testing.assert_array_equal(shuffled, sorted_rho[perm])


@pytest.mark.parametrize("dtype", ["fp64", "fp32"])
def test_unsorted_owners_give_the_same_per_point_values(dtype):
    """Per walker: the spec's fp64 system, and in fp32 the CURRENT build
    of NiO-32 x0.125 (fp32 storage; determinants and Jastrows)."""
    if dtype == "fp64":
        P, twf, _ = JastrowSystemSpec(n=16, seed=7).build_scalar()
    else:
        parts = QmcSystem.from_workload(
            "NiO-32", scale=0.125, seed=9,
            with_nlpp=False).build(CodeVersion.CURRENT)
        P, twf = parts.electrons, parts.twf
        assert P.distance_tables[0].distances.dtype == np.float32
    twf.evaluate_log(P)
    owners, positions = _scalar_slab(P)
    perm = np.random.default_rng(12).permutation(len(owners))
    for c in twf.components:
        np.testing.assert_array_equal(
            c.ratios_vp(P, owners[perm], positions[perm]),
            c.ratios_vp(P, owners, positions)[perm])


def test_empty_slab():
    batch, tables, components, *_ = _batched_system()
    none = np.empty(0, dtype=np.int64)
    for c in components:
        assert c.ratios_vp(batch, tables, none, none,
                           np.empty((0, 3))).shape == (0,)


# -- the lattice SoA minimum image -------------------------------------------
_coords = st.lists(st.floats(-40.0, 40.0), min_size=3, max_size=3)
_blocks = st.lists(_coords, min_size=1, max_size=12)


def _soa(lattice, dr):
    comps = [np.array(dr[:, c]) for c in range(3)]
    lattice.min_image_soa(*comps)
    return np.stack(comps, axis=-1)


class TestMinImageSoa:
    @settings(max_examples=60, deadline=None)
    @given(_blocks, st.floats(2.0, 9.0), st.floats(2.0, 9.0),
           st.floats(2.0, 9.0))
    def test_orthorhombic_bitwise(self, dr, a, b, c):
        dr = np.array(dr)
        for lat in (CrystalLattice.cubic(a),
                    CrystalLattice.orthorhombic(a, b, c)):
            ref = lat.min_image_disp(dr)
            got = _soa(lat, dr)
            # +0.0 == -0.0: the GEMM's added zeros may flip a zero's sign
            np.testing.assert_array_equal(got, ref)
            np.testing.assert_array_equal(
                np.sum(np.square(got), axis=-1).view(np.int64),
                np.sum(np.square(ref), axis=-1).view(np.int64))

    @settings(max_examples=60, deadline=None)
    @given(_blocks, st.floats(0.02, 0.45))
    def test_skewed_picks_the_same_image(self, dr, skew):
        a = 6.0
        lat = CrystalLattice([[a, skew * a, 0.0], [0.0, a, skew * a],
                              [0.0, 0.0, a]])
        dr = np.array(dr)
        ref = lat.min_image_disp(dr)
        got = _soa(lat, dr)
        np.testing.assert_allclose(np.linalg.norm(got, axis=-1),
                                   np.linalg.norm(ref, axis=-1),
                                   rtol=0, atol=1e-12)
        # A tie between two equally short images may break either way;
        # anything else must be the identical image.
        cells = lat.to_frac(got - ref)
        np.testing.assert_allclose(cells, np.rint(cells), atol=1e-9)
        same = np.all(np.rint(cells) == 0, axis=-1)
        np.testing.assert_allclose(got[same], ref[same], rtol=0, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(_blocks)
    def test_open_boundaries_pass_through(self, dr):
        dr = np.array(dr)
        np.testing.assert_array_equal(_soa(CrystalLattice.open_bc(), dr), dr)

    def test_nearly_orthogonal_cell_takes_the_general_transform(self):
        axes = np.diag([5.0, 6.0, 7.0])
        axes[0, 1] = 1e-10  # allclose-orthogonal, not exactly diagonal
        lat = CrystalLattice(axes)
        assert lat.orthogonal
        dr = np.random.default_rng(3).uniform(-20, 20, (50, 3))
        np.testing.assert_allclose(_soa(lat, dr), lat.min_image_disp(dr),
                                   rtol=0, atol=1e-12)


# -- triclinic regression: parity + bounded scratch --------------------------
class TestTriclinicCell:
    @pytest.fixture(scope="class")
    def system(self):
        """The spec's 16-electron model moved into a triclinic cell,
        scaled so the functor cutoffs still fit its Wigner-Seitz sphere."""
        spec = JastrowSystemSpec(n=16, seed=7)
        shape = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.25],
                          [0.1, 0.0, 1.0]])
        scale = 1.01 * spec.lattice.wigner_seitz_radius \
            / CrystalLattice(shape).wigner_seitz_radius
        spec.lattice = spec.ions.lattice = CrystalLattice(scale * shape)
        return spec

    def test_scalar_parity_with_ratio_at(self, system):
        P, twf, _ = system.build_scalar()
        assert not P.lattice.orthogonal
        twf.evaluate_log(P)
        owners, positions = _scalar_slab(P)
        rho = twf.ratios_vp(P, owners, positions)
        ref = np.array([twf.ratio_at(P, int(k), r)
                        for k, r in zip(owners, positions)])
        np.testing.assert_allclose(rho, ref, rtol=1e-10)

    def test_batched_parity_and_scratch_bound(self, system):
        nw, npts = 4, 120
        tables, components, _ = system.build_batched(nw)
        batch = WalkerBatch.from_positions(system.initial_positions(nw))
        _evaluate(batch, tables, components)
        P, twf, _ = system.build_scalar()
        rng = np.random.default_rng(8)
        vw = np.repeat(np.arange(nw), npts)
        vk = np.concatenate([np.sort(rng.integers(0, system.n, npts))
                             for _ in range(nw)])
        slab = system.lattice.wrap(
            batch.R[vw, vk] + 0.4 * rng.normal(size=(nw * npts, 3)))
        block = npts * system.n * 8  # one (segment, n) float64 block
        for c, scalar in zip(components, twf.components):
            c.ratios_vp(batch, tables, vw, vk, slab)  # warm caches
            tracemalloc.start()
            rho = c.ratios_vp(batch, tables, vw, vk, slab)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert peak < SKEW_SCRATCH_BLOCKS * block, (c.name, peak / block)
            for w in range(nw):
                P.R[...] = batch.R[w]
                P.sync_layouts()
                P.update_tables()
                sel = vw == w
                ref = [scalar.ratio_at(P, int(k), r)
                       for k, r in zip(vk[sel], slab[sel])]
                np.testing.assert_allclose(rho[sel], ref, rtol=1e-10)


# -- pinned visit order --------------------------------------------------------
@pytest.mark.parametrize("wl_name", sorted(WORKLOADS))
def test_pinned_species_order_is_the_builders_insertion_order(wl_name):
    wl = get_workload(wl_name)
    parts = build_system(wl, scale=0.125, seed=9, with_nlpp=False)
    j1 = _by_name(parts.twf.components, "J1")
    j1f = make_j1_functors(wl, parts.ions.species, 1.0)
    assert [g for g, _ in j1.species_masks] == list(j1f)
    # J2's constructor only normalizes pair keys; the builders never give
    # two spellings of one pair, so its visit order cannot matter.
    j2f = make_j2_functors(wl, 1.0)
    assert len({(min(p), max(p)) for p in j2f}) == len(j2f)


def test_spec_species_order_is_insertion_order():
    spec = JastrowSystemSpec(n=16, seed=7)
    assert list(spec.j1_functors) == sorted(spec.j1_functors)
    assert len({(min(p), max(p)) for p in spec.j2_functors}) \
        == len(spec.j2_functors)


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--capture":
        sys.exit("usage: test_vp_kernel.py --capture OUT.json")
    pathlib.Path(sys.argv[2]).write_text(json.dumps(
        {"comment": "sha256 of ratios_vp outputs and of the inputs they "
                    "were computed from; see test_vp_kernel.py",
         "numpy": np.__version__, "cases": capture()}, indent=1) + "\n")
