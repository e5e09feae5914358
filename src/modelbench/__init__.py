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

Result records (witnesses, factorizations, verdicts, reports) are plain
classes over the shared base `fincat.core.Record`: `__slots__`, a
hand-written `__init__` whose signature holds every default, and the
base's repr and value equality.  Do not bring back `@dataclass`: importing
`dataclasses` loads `inspect`, and each dataclass generates and compiles
its methods at import.  With no bytecode cache, importing `catmodel`,
`lifting`, `complexes` and `fincat.diagrams` took a median 45.6 ms with
the 21 records as dataclasses and 32.2 ms as plain classes (40
interleaved fresh interpreters each, Python 3.11, 2 CPUs);
`tests/test_imports.py` checks that the import loads neither module.
"""

__version__ = "0.1.0"
