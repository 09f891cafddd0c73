"""Exact divisor-class calculus on ADE rational surfaces.

The package builds Picard lattices of blown-up rational surfaces,
enumerates their lines and roots, computes Euler characteristics and ext
profiles with effectivity certificates, assembles tautological bundles
and their boundary restrictions, analyzes spectral covers of a
one-parameter base, realizes the spectral-data-to-bundle transform at the
level of divisor classes, and mechanically verifies the branch-locus
coordinate-ring models with an exact graded-ring engine.
"""

__version__ = "0.1.0"
