"""Quasi-energies versus the eigenvalues of the time-averaged Hamiltonian.

Averaging the drive replaces the first bond v by v * J0(A/omega) and leaves
the rest of the chain untouched. The exact quasi-energies of the driven
three-level chain track the eigenvalues of that static matrix, and the
residual deviation shrinks as the drive frequency grows at fixed A/omega.
"""

import numpy as np

from darkfloquet import DrivenSystem, effective_model, floquet_spectrum


def main():
    ratios = np.linspace(0.0, 5.0, 26)
    for omega in (10.0, 20.0, 40.0):
        worst = 0.0
        for ratio in ratios:
            system = DrivenSystem(3, 1.0, ratio * omega, omega)
            eps = floquet_spectrum(system).quasi_energies
            lam = np.linalg.eigvalsh(effective_model(system).matrix)
            worst = max(worst, float(np.max(np.abs(eps - lam))))
        print(f"omega = {omega:4.0f}: max |quasi-energy - averaged eigenvalue| "
              f"= {worst:.5f}")


if __name__ == "__main__":
    main()
