"""Desk-scale workbench for executable model structures.

Subpackages and modules:
    fincat    -- finite categories, functors, quivers, colimits
    lifting   -- orthogonality / retract / cell / model-axiom checkers over CatAmbient
    catmodel  -- the natural model structure on Cat
    complexes -- bounded rational cochain complexes
    linalg    -- exact linear algebra over the rationals

Every decision procedure returns witnesses that can be re-verified by an
independent brute-force or linear-algebra route; those references are kept
in `tests/oracles.py`, since no decision procedure calls them.
"""

__version__ = "0.1.0"
