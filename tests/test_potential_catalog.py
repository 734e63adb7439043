"""Catalog tests: canonical triples, closed-form levels, quantization round trips."""

import dataclasses
import math

import numpy as np
import pytest

from laplaceqm.contour_eval import ROUTES, sample_wavefunction
from laplaceqm.core_laplace import Regime, exponents
from laplaceqm.potential_catalog import (
    BOUND_KINDS,
    CONTINUUM_KINDS,
    LAGUERRE_BOUND_KINDS,
    RADIAL_KINDS,
    SPEC_FIELDS,
    DomainError,
    InvalidQuantumNumbers,
    Kind,
    NotBoundProblem,
    ProblemSpec,
    QuantumNumbers,
    RegimeMismatch,
    bound_energy,
    canonicalize,
    coordinate_map,
    morse_delta,
    n_start,
    residue_lattice_energy,
)
from laplaceqm.special_fn import hermite

from quantization import quantization_check


class TestKindSets:
    def test_partition(self):
        assert len(LAGUERRE_BOUND_KINDS) == 7
        assert len(BOUND_KINDS) == 8
        assert len(CONTINUUM_KINDS) == 4
        assert len(RADIAL_KINDS) == 8
        everything = BOUND_KINDS | CONTINUUM_KINDS | {Kind.MORSE_CONT}
        assert everything == set(Kind)
        assert not BOUND_KINDS & CONTINUUM_KINDS

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ProblemSpec(kind=Kind.SHO2D, mu=-1.0)
        with pytest.raises(ValueError):
            ProblemSpec(kind=Kind.MORSE, morse_v0=0.0)
        with pytest.raises(InvalidQuantumNumbers):
            ProblemSpec(kind=Kind.SHO3D, l_quantum=-1)
        # negative m is legitimate (azimuthal sign enters only as |m|)
        ProblemSpec(kind=Kind.SHO2D, m_quantum=-2)

    @pytest.mark.parametrize("name", ["mu", "omega", "a0", "morse_a", "morse_v0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_spec_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            ProblemSpec(kind=Kind.COULOMB3D, **{name: value})


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:  # RegimeMismatch, InvalidQuantumNumbers
        return type(exc)


class TestSpecFields:
    CHANGES = {"mu": 1.7, "omega": 1.7, "a0": 1.7, "morse_a": 1.7, "morse_v0": 1.7,
               "m_quantum": 2, "l_quantum": 2}
    COORDS = np.array([0.3, 1.1, 2.0])

    def reads(self, spec, energy):
        cmap = coordinate_map(spec, energy)
        out = [_outcome(canonicalize, spec, energy),
               cmap.xi(self.COORDS).tolist(), cmap.prefactor(self.COORDS).tolist()]
        if spec.kind in BOUND_KINDS:
            out.append(_outcome(bound_energy, spec, n_start(spec) + 1))
        return out

    @pytest.mark.parametrize("kind", list(Kind))
    def test_kind_reads_exactly_its_fields(self, kind):
        # a field outside SPEC_FIELDS[kind] changes none of canonicalize,
        # coordinate_map and bound_energy; a field inside changes one of them
        base = ProblemSpec(kind=kind)
        energy = bound_energy(base, n_start(base)) if kind in BOUND_KINDS else 1.3
        assert SPEC_FIELDS[kind] <= set(self.CHANGES)
        for field, value in self.CHANGES.items():
            changed = dataclasses.replace(base, **{field: value})
            moved = self.reads(changed, energy) != self.reads(base, energy)
            assert moved == (field in SPEC_FIELDS[kind]), field


class TestCanonicalize:
    def test_sho_odd_row(self):
        ode = canonicalize(ProblemSpec(kind=Kind.SHO1D_ODD), 1.5)
        assert ode.beta == 1.5 + 0j
        assert ode.delta == pytest.approx(0.75)
        assert ode.lam == 0.5 + 0j
        assert ode.regime is Regime.BOUND

    def test_free_3d_row(self):
        ode = canonicalize(ProblemSpec(kind=Kind.FREE3D, l_quantum=0), 7.3)
        assert ode.beta == 2 + 0j
        assert ode.delta == 0.0
        assert ode.lam == 1j
        assert ode.regime is Regime.CONTINUUM

    def test_coulomb_3d_unit_energy(self):
        # E = -1/(2 mu a0^2) makes sqrt(-2 mu E) = 1/a0, hence delta = 2
        spec = ProblemSpec(kind=Kind.COULOMB3D, mu=1.3, a0=0.7)
        e = -1.0 / (2.0 * spec.mu * spec.a0**2)
        assert canonicalize(spec, e).delta == pytest.approx(2.0, rel=1e-13)

    def test_morse_cont_row(self):
        spec = ProblemSpec(kind=Kind.MORSE_CONT, mu=2.0, morse_a=0.5, morse_v0=3.0)
        e = 1.7
        ode = canonicalize(spec, e)
        kbar = math.sqrt(2.0 * spec.mu * e) / spec.morse_a
        assert ode.beta == pytest.approx(1.0 + 2j * kbar)
        assert ode.delta == pytest.approx(math.sqrt(2.0 * spec.mu * spec.morse_v0)
                                          / spec.morse_a)
        assert ode.regime is Regime.MORSE_CONTINUUM

    @pytest.mark.parametrize("kind,bad_e", [
        (Kind.SHO1D_EVEN, -0.1),
        (Kind.SHO3D, -2.0),
        (Kind.COULOMB2D, 0.5),
        (Kind.COULOMB3D, 0.0),
        (Kind.MORSE, 0.1),
        (Kind.FREE2D, 0.0),
        (Kind.FREE3D, -1.0),
        (Kind.COULOMB2D_CONT, -0.5),
        (Kind.COULOMB3D_CONT, 0.0),
        (Kind.MORSE_CONT, -1.0),
        (Kind.COULOMB3D_CONT, math.inf),
        (Kind.FREE3D, math.inf),
        (Kind.COULOMB3D, -math.inf),
        (Kind.SHO2D, math.nan),
        (Kind.MORSE_CONT, math.nan),
    ])
    def test_energy_sign_policing(self, kind, bad_e):
        with pytest.raises(RegimeMismatch):
            canonicalize(ProblemSpec(kind=kind), bad_e)
        with pytest.raises(RegimeMismatch):
            coordinate_map(ProblemSpec(kind=kind), bad_e)

    def test_hermite_kind_has_no_triple(self):
        with pytest.raises(RegimeMismatch):
            canonicalize(ProblemSpec(kind=Kind.SHO1D_HERMITE), 0.5)


# closed forms of alpha_minus per bound kind, written independently of the
# canonicalize/exponents pipeline
_ALPHA_MINUS_CLOSED = {
    Kind.SHO1D_EVEN: lambda s, e: 0.25 - e / (2 * s.omega),
    Kind.SHO1D_ODD: lambda s, e: 0.75 - e / (2 * s.omega),
    Kind.SHO2D: lambda s, e: 0.5 * (abs(s.m_quantum) + 1) - e / (2 * s.omega),
    Kind.SHO3D: lambda s, e: 0.5 * (s.l_quantum + 1.5) - e / (2 * s.omega),
    Kind.COULOMB2D: lambda s, e: abs(s.m_quantum) + 0.5
    - 1.0 / (s.a0 * math.sqrt(-2 * s.mu * e)),
    Kind.COULOMB3D: lambda s, e: s.l_quantum + 1.0
    - 1.0 / (s.a0 * math.sqrt(-2 * s.mu * e)),
    Kind.MORSE: lambda s, e: math.sqrt(-2 * s.mu * e) / s.morse_a + 0.5
    - math.sqrt(2 * s.mu * s.morse_v0) / s.morse_a,
}


class TestExponentClosedForms:
    @pytest.mark.parametrize("kind", sorted(_ALPHA_MINUS_CLOSED, key=lambda k: k.value))
    def test_alpha_minus_random_energies(self, kind):
        spec = ProblemSpec(kind=kind, mu=1.7, omega=0.9, a0=1.3,
                           morse_a=0.8, morse_v0=2.2, m_quantum=-2, l_quantum=2)
        rng = np.random.default_rng(20260819)
        closed = _ALPHA_MINUS_CLOSED[kind]
        for _ in range(100):
            if kind in (Kind.COULOMB2D, Kind.COULOMB3D, Kind.MORSE):
                e = -float(rng.uniform(0.01, 5.0))
            else:
                e = float(rng.uniform(0.0, 20.0))
            exps = exponents(canonicalize(spec, e))
            want = closed(spec, e)
            assert exps.alpha_minus.imag == 0.0
            assert abs(exps.alpha_minus.real - want) <= 1e-12 * max(1.0, abs(want))


class TestBoundEnergy:
    def test_examples(self):
        w = 1.3
        assert bound_energy(ProblemSpec(kind=Kind.SHO1D_EVEN, omega=w), 0) == pytest.approx(w / 2)
        assert bound_energy(ProblemSpec(kind=Kind.COULOMB3D), 1) == pytest.approx(-0.5)
        assert bound_energy(ProblemSpec(kind=Kind.COULOMB2D), 1) == pytest.approx(-2.0)
        # well depth parameter exactly 1: single level at -a^2/(8 mu)
        morse = ProblemSpec(kind=Kind.MORSE, morse_v0=0.5)
        assert morse_delta(morse) == pytest.approx(1.0)
        assert bound_energy(morse, 0) == pytest.approx(-0.125)

    def test_not_bound(self):
        for kind in sorted(CONTINUUM_KINDS | {Kind.MORSE_CONT}, key=lambda k: k.value):
            with pytest.raises(NotBoundProblem):
                bound_energy(ProblemSpec(kind=kind), 0)

    def test_below_start_label(self):
        with pytest.raises(InvalidQuantumNumbers):
            bound_energy(ProblemSpec(kind=Kind.COULOMB3D, l_quantum=2), 2)
        with pytest.raises(InvalidQuantumNumbers):
            bound_energy(ProblemSpec(kind=Kind.COULOMB2D, m_quantum=3), 3)

    def test_morse_truncation(self):
        spec = ProblemSpec(kind=Kind.MORSE, morse_v0=0.5)  # delta = 1
        with pytest.raises(InvalidQuantumNumbers):
            bound_energy(spec, 1)

    @pytest.mark.parametrize("v0", [0.5, 2.0, 3.125, 40.0])
    def test_morse_level_count_matches_enumeration(self, v0):
        spec = ProblemSpec(kind=Kind.MORSE, morse_v0=v0)
        delta = morse_delta(spec)
        want = sum(1 for n in range(200) if n + 0.5 < delta)
        got = 0
        for n in range(200):
            try:
                bound_energy(spec, n)
            except InvalidQuantumNumbers:
                break
            got += 1
        assert got == want

    def test_accepts_quantum_numbers_object(self):
        spec = ProblemSpec(kind=Kind.SHO3D, l_quantum=1)
        assert bound_energy(spec, QuantumNumbers(n=2, N=2)) == bound_energy(spec, 2)

    def test_sho_interleaving(self):
        even = [bound_energy(ProblemSpec(kind=Kind.SHO1D_EVEN), n) for n in range(11)]
        odd = [bound_energy(ProblemSpec(kind=Kind.SHO1D_ODD), n) for n in range(10)]
        ladder = [bound_energy(ProblemSpec(kind=Kind.SHO1D_HERMITE), k) for k in range(21)]
        assert sorted(even + odd) == ladder  # exact: all values are k + 1/2


def _finite_difference_levels(spec, potential, lo, hi, points=1200):
    """Ascending eigenvalues of -u''/(2 mu) + V u on (lo, hi) with u = 0 at both
    ends, on a uniform three-point grid; a dense matrix, numpy only."""
    x = np.linspace(lo, hi, points + 2)[1:-1]
    t = 1.0 / (2.0 * spec.mu * (x[1] - x[0]) ** 2)
    h = np.diag(2.0 * t + potential(x)) - t * (np.eye(points, k=1) + np.eye(points, k=-1))
    return np.linalg.eigvalsh(h)


def _effective_potential(spec, d, v):
    """V in 1D; in d = 2, 3 the potential of u = r^{(d-1)/2} R, which adds the
    centrifugal (L^2 - 1/4)/(2 mu r^2) with L = |m| in 2D and l + 1/2 in 3D."""
    if d == 1:
        return v
    big_l = abs(spec.m_quantum) if d == 2 else spec.l_quantum + 0.5
    return lambda r: (big_l**2 - 0.25) / (2.0 * spec.mu * r * r) + v(r)


def _harmonic(spec):
    return lambda x: 0.5 * spec.mu * spec.omega**2 * x * x


def _coulomb(spec):
    return lambda r: -1.0 / (spec.mu * spec.a0 * r)


def _morse(spec):
    a = spec.morse_a
    return lambda x: spec.morse_v0 * (np.exp(-2.0 * a * x) - 2.0 * np.exp(-a * x))


# kind: (parameters, potential, dimension, interval, which ascending
# eigenvalues are the kind's levels); the 1D oscillator's even and odd
# levels interleave
_FINITE_DIFFERENCE_CASES = {
    Kind.SHO1D_EVEN: ({}, _harmonic, 1, (-9, 9), slice(0, None, 2)),
    Kind.SHO1D_ODD: ({}, _harmonic, 1, (-9, 9), slice(1, None, 2)),
    Kind.SHO1D_HERMITE: ({}, _harmonic, 1, (-9, 9), slice(None)),
    Kind.SHO2D: ({"m_quantum": 1}, _harmonic, 2, (0, 9), slice(None)),
    Kind.SHO3D: ({"l_quantum": 1}, _harmonic, 3, (0, 9), slice(None)),
    Kind.COULOMB2D: ({"m_quantum": 1}, _coulomb, 2, (0, 60), slice(None)),
    Kind.COULOMB3D: ({}, _coulomb, 3, (0, 80), slice(None)),
    Kind.MORSE: ({"morse_v0": 40.0}, _morse, 1, (-2, 10), slice(None)),
}


@pytest.mark.parametrize("kind", sorted(BOUND_KINDS, key=lambda k: k.value))
def test_first_levels_match_a_finite_difference_hamiltonian(kind):
    """An oracle that shares no code with the catalog: the Hamiltonian itself."""
    params, potential, d, (lo, hi), levels = _FINITE_DIFFERENCE_CASES[kind]
    spec = ProblemSpec(kind=kind, **params)
    v = _effective_potential(spec, d, potential(spec))
    got = _finite_difference_levels(spec, v, lo, hi)[levels][:3]
    want = [bound_energy(spec, n_start(spec) + i) for i in range(3)]
    assert got == pytest.approx(want, rel=2e-3)


class TestResidueLattice:
    def test_matches_catalog_away_from_morse(self):
        for kind in sorted(BOUND_KINDS, key=lambda k: k.value):
            spec = ProblemSpec(kind=kind, m_quantum=1, l_quantum=2, morse_v0=31.0)
            for big_n in range(4):
                want = bound_energy(spec, n_start(spec) + big_n)
                assert residue_lattice_energy(spec, big_n) == want

    def test_morse_half_step(self):
        spec = ProblemSpec(kind=Kind.MORSE, morse_v0=3.125)  # delta = 2.5
        assert residue_lattice_energy(spec, 0) == pytest.approx(-2.0)
        assert residue_lattice_energy(spec, 1) == pytest.approx(-0.5)
        with pytest.raises(InvalidQuantumNumbers):
            residue_lattice_energy(spec, 2)  # delta - N - 1/2 = 0

    def test_rejects_negative_order(self):
        with pytest.raises(InvalidQuantumNumbers):
            residue_lattice_energy(ProblemSpec(kind=Kind.SHO1D_EVEN), -1)


class TestQuantizationCheck:
    def test_hermite_ladder(self):
        spec = ProblemSpec(kind=Kind.SHO1D_HERMITE, omega=0.7)
        qn = quantization_check(spec, 0.7 * 4.5)
        assert qn == QuantumNumbers(n=4, N=4)

    def test_sho2d_example(self):
        spec = ProblemSpec(kind=Kind.SHO2D, m_quantum=2)
        qn = quantization_check(spec, 2 * 3 + abs(2) + 1)
        assert qn == QuantumNumbers(n=3, N=3)

    def test_off_lattice_is_none(self):
        assert quantization_check(ProblemSpec(kind=Kind.SHO1D_EVEN), 1.3) is None
        morse = ProblemSpec(kind=Kind.MORSE, morse_v0=3.125)
        assert quantization_check(morse, -1.77) is None

    def test_morse_levels_sit_on_the_residue_lattice(self):
        spec = ProblemSpec(kind=Kind.MORSE, mu=1.4, morse_a=0.9, morse_v0=6.0)
        for n in range(3):
            e = bound_energy(spec, n)
            exps = exponents(canonicalize(spec, e))
            assert -exps.alpha_minus.real == pytest.approx(n, abs=1e-12)

    def test_not_bound(self):
        with pytest.raises(NotBoundProblem):
            quantization_check(ProblemSpec(kind=Kind.FREE3D), 1.0)

    @pytest.mark.parametrize("kind", sorted(BOUND_KINDS, key=lambda k: k.value))
    def test_round_trip(self, kind):
        """quantization_check inverts bound_energy across the label lattice."""
        m_values = range(-3, 4) if kind in (Kind.SHO2D, Kind.COULOMB2D) else (0,)
        l_values = range(4) if kind in (Kind.SHO3D, Kind.COULOMB3D) else (0,)
        for m in m_values:
            for l in l_values:
                spec = ProblemSpec(kind=kind, mu=1.1, omega=0.8, a0=1.2,
                                   morse_a=0.7, morse_v0=31.0,  # delta ~ 11.9
                                   m_quantum=m, l_quantum=l)
                for n in range(n_start(spec), n_start(spec) + 11):
                    qn = quantization_check(spec, bound_energy(spec, n))
                    assert qn is not None
                    assert qn.n == n
                    assert qn.N == n - n_start(spec)


class TestNStart:
    def test_values(self):
        assert n_start(ProblemSpec(kind=Kind.COULOMB2D, m_quantum=-2)) == 3
        assert n_start(ProblemSpec(kind=Kind.COULOMB3D, l_quantum=1)) == 2
        assert n_start(ProblemSpec(kind=Kind.SHO1D_EVEN)) == 0
        assert n_start(ProblemSpec(kind=Kind.MORSE)) == 0


class TestCoordinateMap:
    def test_sho_quadratic(self):
        spec = ProblemSpec(kind=Kind.SHO3D, mu=2.0, omega=3.0)
        cmap = coordinate_map(spec, bound_energy(spec, 0))
        r = np.array([0.0, 0.5, 2.0])
        assert np.allclose(cmap.xi(r), 6.0 * r * r)

    def test_coulomb_linear(self):
        spec = ProblemSpec(kind=Kind.COULOMB3D)
        cmap = coordinate_map(spec, -0.5)  # kappa = 1
        assert cmap.xi([2.0])[0] == pytest.approx(2.0)

    def test_continuum_linear(self):
        spec = ProblemSpec(kind=Kind.FREE2D)
        cmap = coordinate_map(spec, 2.0)  # k = 2
        assert cmap.xi([3.0])[0] == pytest.approx(6.0)

    def test_morse_exponential_decreasing(self):
        spec = ProblemSpec(kind=Kind.MORSE, morse_v0=3.125, morse_a=0.6)
        cmap = coordinate_map(spec, -0.5)
        x = np.linspace(-3.0, 5.0, 30)
        xi = cmap.xi(x)
        assert np.all(np.diff(xi) < 0)
        assert np.allclose(xi, 2.0 * morse_delta(spec) * np.exp(-0.6 * x))
        assert np.all(xi >= 0)

    def test_hermite_line_signed(self):
        spec = ProblemSpec(kind=Kind.SHO1D_HERMITE, mu=4.0, omega=1.0)
        cmap = coordinate_map(spec, 0.5)
        assert cmap.xi([-1.5])[0] == pytest.approx(-3.0)

    def test_radial_domain(self):
        spec = ProblemSpec(kind=Kind.SHO2D)
        cmap = coordinate_map(spec, 1.0)
        with pytest.raises(DomainError):
            cmap.xi([-0.1])
        with pytest.raises(DomainError):
            cmap.prefactor([-0.1])

    def test_prefactors(self):
        rho = np.array([0.5, 1.5])
        sho2d = coordinate_map(ProblemSpec(kind=Kind.SHO2D, m_quantum=-2), 3.0)
        assert np.allclose(sho2d.prefactor(rho), rho**2)
        c3d = coordinate_map(ProblemSpec(kind=Kind.COULOMB3D_CONT, l_quantum=1), 2.0)
        assert np.allclose(c3d.prefactor(rho), rho)
        mc = coordinate_map(ProblemSpec(kind=Kind.MORSE_CONT, morse_v0=2.0), 2.0)
        assert np.allclose(np.abs(mc.prefactor(np.array([0.0, 1.0, 4.0]))), 1.0)


def assemble_wavefunction(spec, qn_or_energy, coordinates):
    """psi = prefactor * Phi by the kind's default (reference) route."""
    return sample_wavefunction(spec, qn_or_energy, coordinates, ROUTES[spec.kind][0])


class TestAssembleWavefunction:
    def test_hermite_closed_form(self):
        spec = ProblemSpec(kind=Kind.SHO1D_HERMITE, mu=2.0, omega=0.5)
        x = np.linspace(-2.0, 2.0, 9)
        grid = assemble_wavefunction(spec, 3, x)
        s = math.sqrt(spec.mu * spec.omega)
        want = np.exp(-0.5 * s * s * x * x) * hermite(3, s * x)
        assert np.allclose(grid.psi, want, rtol=1e-12, atol=1e-12)

    def test_hydrogen_ground_state_ratio(self):
        spec = ProblemSpec(kind=Kind.COULOMB3D, mu=1.0, a0=1.0)
        r = np.array([0.3, 0.9, 1.7, 3.2, 5.0])
        grid = assemble_wavefunction(spec, 1, r)
        ratio = grid.psi / np.exp(-r)
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-12

    def test_free3d_matches_spherical_bessel(self):
        spec = ProblemSpec(kind=Kind.FREE3D, l_quantum=0)
        e = 2.0
        r = np.array([0.4, 1.0, 2.5, 4.0])
        grid = assemble_wavefunction(spec, e, r)
        k = math.sqrt(2.0 * e)
        j0 = np.sin(k * r) / (k * r)
        ratio = grid.phi / j0
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-9

    def test_entries_sorted(self):
        spec = ProblemSpec(kind=Kind.SHO1D_EVEN)
        grid = assemble_wavefunction(spec, 1, [2.0, 0.5, 1.0])
        assert list(grid.coordinates) == [0.5, 1.0, 2.0]
        assert grid.method.value == "residue"

    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            assemble_wavefunction(ProblemSpec(kind=Kind.FREE3D), 1.0, [-1.0, 1.0])

    @pytest.mark.parametrize("n", range(4))
    def test_even_oscillator_reduces_to_hermite(self, n):
        """Even-channel psi and the Hermite-route psi agree up to one constant."""
        x = np.array([0.2, 0.45, 0.9, 1.8])
        even = assemble_wavefunction(ProblemSpec(kind=Kind.SHO1D_EVEN), n, x)
        herm = assemble_wavefunction(ProblemSpec(kind=Kind.SHO1D_HERMITE), 2 * n, x)
        keep = np.abs(herm.psi) > 1e-3 * np.max(np.abs(herm.psi))
        ratio = even.psi[keep] / herm.psi[keep]
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-9

    @pytest.mark.parametrize("n", range(3))
    def test_odd_oscillator_reduces_to_hermite(self, n):
        x = np.array([0.2, 0.45, 0.9, 1.8])
        odd = assemble_wavefunction(ProblemSpec(kind=Kind.SHO1D_ODD), n, x)
        herm = assemble_wavefunction(ProblemSpec(kind=Kind.SHO1D_HERMITE), 2 * n + 1, x)
        keep = np.abs(herm.psi) > 1e-3 * np.max(np.abs(herm.psi))
        ratio = odd.psi[keep] / herm.psi[keep]
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-9
