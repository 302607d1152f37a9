"""Exact loop space homology, cross-checked by several routes.

The routes sit in three layers that deliberately do not share code paths:
brute-force homology of a simplicial resolution (`algebra`, `simplicial`,
`homology`), closed-form answers with their multiplicative structure
(`closedform`, `ez`), and a stable-wedge model built from Thom space
data (`thom`, `steenrod`).  The `cli` module wires the cross-checks.
"""

__version__ = "0.1.0"
