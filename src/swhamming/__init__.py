"""Syndrome-based Slepian-Wolf coding for multiple correlated binary sources.

Subpackages cover the GF(2) substrate (:mod:`swhamming.gf2`), the
Hamming-source model (:mod:`swhamming.sources`), encoding and exact
compressibility verification (:mod:`swhamming.codec`), the Hamming-code
constructions for three or more sources (:mod:`swhamming.hcms`,
:mod:`swhamming.ghcms`), and the null-space equivalence machinery
(:mod:`swhamming.equiv`).  The ``swhamming`` CLI ties them together.
"""

__version__ = "0.1.0"
