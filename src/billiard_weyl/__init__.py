"""Mode-density asymptotics for planar billiards.

Smooth-expansion coefficients from geometry, closed-orbit Green functions,
bounce-map monodromy algebra, image-path corner ledgers, and exact-spectrum
verification harnesses.

Each public name has one home, the module that lists it in ``__all__``, and
is imported from there, e.g. ``from billiard_weyl.folding import
obtuse_corner_constant``.  Importing the package loads no submodule, so a
process that needs only the exact, numpy-free modules never loads numpy.
"""

__version__ = "0.1.0"
