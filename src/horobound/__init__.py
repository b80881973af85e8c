"""Finite-scale boundary, annihilator and metric computations on groups.

The package computes exact word metrics on finitely generated groups (four
built-in families), truncated horofunction boundaries with their group
action, annihilator subgroups of elements invisible to every boundary
functional, the convex-geometry pipeline that certifies an infinite boundary
for virtually abelian groups of rank >= 2, and integer-valued left-invariant
metrics that are not word metrics. Everything is exact: integer BFS,
`fractions.Fraction` linear programming, no floats.

The package root exports only ``__version__``; import every other name from
its submodule, e.g. ``from horobound.cayley import grow_ball``.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
