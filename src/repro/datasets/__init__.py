"""Synthetic dataset generators standing in for the paper's two datasets.

The paper's data is not redistributable (the LANL deep-water asteroid
impact ensemble; an SDRBench Nyx snapshot), so this package generates
physics-inspired synthetic equivalents that reproduce the *properties the
evaluation actually measures* — material-fraction arrays with sharp, small
interfaces (tiny contour selectivity), compression ratios that decay over
simulation time, and a poorly compressible log-normal cosmology field with
a rare-halo threshold.  DESIGN.md §2 records the substitution argument.
"""

from repro.datasets.asteroid import AsteroidImpactDataset, AsteroidParams
from repro.datasets.fields import (
    fractal_noise,
    smoothstep,
)
from repro.datasets.nyx import NyxDataset, NyxParams

__all__ = [
    "AsteroidImpactDataset",
    "AsteroidParams",
    "NyxDataset",
    "NyxParams",
    "fractal_noise",
    "smoothstep",
]
