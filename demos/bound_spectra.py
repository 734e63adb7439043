"""Bound-state tour: level ladders and a radial wavefunction with its nodes.

Run:  python3 demos/bound_spectra.py
"""

import numpy as np

from laplaceqm.contour_eval import Method, sample_wavefunction
from laplaceqm.potential_catalog import Kind, ProblemSpec
from laplaceqm.validation import spectrum_table


def show_ladder(title, spec, n_max):
    print(f"\n{title}")
    for qn, energy in spectrum_table(spec, n_max):
        print(f"  n={qn.n:<2d} N={qn.N:<2d} E={energy:+.6f}")


def main():
    show_ladder("1D oscillator (full ladder)",
                ProblemSpec(kind=Kind.SHO1D_HERMITE), 5)
    show_ladder("3D hydrogen, l=1",
                ProblemSpec(kind=Kind.COULOMB3D, l_quantum=1), 5)
    show_ladder("Morse well, V0=3.125 (only two levels fit)",
                ProblemSpec(kind=Kind.MORSE, morse_v0=3.125), 9)

    # radial 2s hydrogen: one node, visible as a sign change in psi
    spec = ProblemSpec(kind=Kind.COULOMB3D)
    radii = np.linspace(0.4, 8.0, 20)
    grid = sample_wavefunction(spec, 2, radii, Method.RESIDUE)
    print("\nHydrogen n=2, l=0 radial profile (node at r = 2):")
    print(f"  level energy E = {grid.energy:+.6f}")
    # the residue result carries a constant complex phase; rotate it away
    # so the plotted component is the real radial profile
    pivot = grid.psi[np.argmax(np.abs(grid.psi))]
    vals = (grid.psi * np.exp(-1j * np.angle(pivot))).real
    scale = np.max(np.abs(vals))
    for coord, val in list(zip(grid.coordinates, vals))[::2]:
        bar = "#" * int(round(24 * abs(val) / scale))
        sign = "-" if val < -1e-9 * scale else "+"
        print(f"  r={coord:5.2f}  {sign} {bar}")


if __name__ == "__main__":
    main()
