"""The zero quasi-energy Floquet mode of odd chains and its population profile.

For every drive ratio, one Floquet mode of the three- and five-level chains
sits at quasi-energy zero with essentially no period-averaged weight on the
even-indexed sites. The even chain has no such mode away from the Bessel
root. The closed-form zero mode of the averaged Hamiltonian predicts the
weight on site 1 and the threshold above which that weight exceeds 1/2.
"""

import numpy as np

from darkfloquet import (DrivenSystem, bessel_j0, dark_mode,
                         floquet_spectrum, localization)


def main():
    omega, v = 10.0, 1.0
    for n in (3, 4, 5):
        print(f"--- {n}-level chain ---")
        for ratio in (0.8, 2.0, 3.5):
            spec = floquet_spectrum(DrivenSystem(n, v, ratio * omega, omega))
            found = dark_mode(spec)
            if found.index is None:
                print(f"  A/omega = {ratio}: no dark mode")
                continue
            pops = spec.avg_populations[found.index]
            even = pops[1::2].max()
            eps = spec.quasi_energies[found.index]
            line = (f"  A/omega = {ratio}: eps = {eps:+.2e}, "
                    f"<P1> = {pops[0]:.3f}, max even-site <P> = {even:.4f}")
            if n % 2 == 1:
                w1sq, above = localization(n, v, v * bessel_j0(ratio))
                line += (f"  [static zero mode: |w1|^2 = {w1sq:.3f}, "
                         f"localized: {above}]")
            print(line)


if __name__ == "__main__":
    main()
