"""loopcybe: exact trigonometric solutions of the classical Yang-Baxter
equation on twisted loop algebras, their twists, and their classification.

The package is float-free end to end: scalars are rationals (or elements
of Q(zeta_3) for order-3 twists), tensors are sparse dictionaries, and every
identity is checked symbolically or at exact rational points.  The regrading
maps live in `loopcybe.regrade`, which the package root does not import.
"""

from .cartan import CartanType, RootSystem, build_root_system
from .chevalley import ChevalleyAlgebra, chevalley_algebra, lift_diagram_automorphism
from .loop import LoopElement, SigmaType, TwistedLoopAlgebra, loop_algebra
from .tensors import (TwoPointTensor, casimir_components, cobracket, contraction,
                      cybe, r0, residue_operator, skew, taylor, twist_residual,
                      verify_cybe)
from .bd import (BDQuadruple, ThetaMap, build_rq, build_twist, canonical_t_h,
                 cayley, th_dimension, th_solution_space, validate, w_isotropy)
from .classify import (act, diagram_automorphisms, enumerate_representatives,
                       equivalence_witness, parabolic_restriction_check,
                       quasi_trig_reachable, type_census)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
