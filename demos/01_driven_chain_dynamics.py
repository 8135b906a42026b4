"""Populations of a driven three-level chain at three drive strengths.

The first site of the chain is coupled to the second by a bond that the
drive renormalizes by a Bessel factor J0(A/omega). Undriven, the initial
population leaves site 1 completely. At A/omega = 2.0 the minimum of P1
stays above 0.8, and at the first Bessel root (about 2.405) it barely
moves at all: the tunneling is destroyed over a wide range of amplitudes,
not just at one point.
"""

import numpy as np

from darkfloquet import DrivenSystem, bessel_j0, min_p1_oracle, propagate


def main():
    omega, v, periods = 10.0, 1.0, 20
    for ratio in (0.0, 2.0, 2.404826):
        system = DrivenSystem(3, v, ratio * omega, omega)
        c0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        traj = propagate(system, c0, periods)
        floor = traj.populations[:, 0].min()
        predicted = min_p1_oracle(v, v * bessel_j0(ratio))
        print(f"A/omega = {ratio:5.3f}: min P1 over {periods} periods "
              f"= {floor:.4f} (averaged-model prediction {predicted:.4f})")


if __name__ == "__main__":
    main()
