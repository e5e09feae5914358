from .core import Square, LiftWitness, RetractWitness, ModelTriple
from .search import find_lifting, lifted_squares, is_orthogonal, find_retract
from .cells import cell_step, small_object_factorization
from .axioms import check_model_axioms

__all__ = [
    "Square", "LiftWitness", "RetractWitness", "ModelTriple",
    "find_lifting", "lifted_squares", "is_orthogonal", "find_retract",
    "cell_step", "small_object_factorization", "check_model_axioms",
]
