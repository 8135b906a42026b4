"""Minimum site-1 population versus drive ratio for chains of 2 to 5 levels.

Odd chains keep a sizeable population floor across a broad band of drive
amplitudes once the drive is strong enough, because a zero quasi-energy
mode pins weight on site 1. The averaged model bounds that floor below by
F_n = max(0, 2|w_1|^2 - 1)^2, with |w_1|^2 the zero mode's weight on
site 1; for odd n the demo reports min P1 over the band where F_n > 0.05.
Even chains show full transfer everywhere except a narrow spike near the
first Bessel root, the classic isolated suppression point of a driven
two-level system; for them it reports min P1 over ratios [1, 4].

Writes one CSV (and SVG curve) per chain length into demos/output/.
"""

from pathlib import Path

import numpy as np

from darkfloquet import bessel_j0, min_p1_floor
from darkfloquet.harness import ExperimentConfig, run_min_pop_sweep


def main():
    out_dir = Path(__file__).parent / "output"
    grid = np.linspace(0.0, 5.0, 101)
    for n in (2, 3, 4, 5):
        config = ExperimentConfig(experiment="sweep-min-pop", n=n,
                                  ratio_grid=grid, svg=True, timestamp=False,
                                  out=out_dir / f"min_pop_n{n}.csv")
        path = run_min_pop_sweep(config)
        rows = [line.split(",") for line in path.read_text().splitlines()
                if line and not line.startswith("#")]
        vals = np.array(rows[1:], dtype=float)
        if n % 2:
            mask = np.array([min_p1_floor(n, 1.0, bessel_j0(r)) > 0.05
                             for r in vals[:, 0]])
            start = vals[mask, 0].min()
            where = f"the band F_n > 0.05, ratios [{start:.2f}, 5]"
        else:
            mask = (vals[:, 0] >= 1.0) & (vals[:, 0] <= 4.0)
            where = "ratios [1, 4]"
        band = vals[mask, 1]
        print(f"n={n}: wrote {path.name}; min P1 on {where} spans "
              f"[{band.min():.4f}, {band.max():.4f}]")


if __name__ == "__main__":
    main()
