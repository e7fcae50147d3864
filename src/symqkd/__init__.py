"""Symmetric collective attacks and secret-key rates for BB84 and six-state QKD.

The package builds the whole eavesdropping interaction as a small isometry,
computes Devetak-Winter rates from first principles (partial traces,
eigenvalues, entropies, Holevo information) and from the protocols' closed
key-rate formulas, verifies the two agree across the attack family, and
reproduces the 11% / 12.6% security thresholds. A seedable Monte Carlo
simulator checks the induced channel statistics empirically.

Import from the modules (``symqkd.attack``, ``symqkd.rates``, ...); the
package root holds only ``__version__``.
"""

__version__ = "0.1.0"
