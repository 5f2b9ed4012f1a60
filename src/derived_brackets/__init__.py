"""Exact-arithmetic derived-bracket homotopy algebras and twisted Poisson geometry.

Subpackages by layer:

  graded    Koszul signs, unshuffles, degree shifts, the sparse-combination
            base of every element type, two-part direct sums
  gla       structure-constant graded Lie algebras and their validation
  linfty    the generic L-infinity[1] interface (relations, Maurer-Cartan,
            twisting, gauge fields, degree-shift converter)
  vdata     quadruples (L, a, P, Delta) and the two derived-bracket algebras
  polygeo   polynomial multivector fields / forms, Schouten calculus, the
            coisotropic model on a trivial bundle
  qgeom     the graded coordinate model of the standard Courant algebroid,
            used as an independent oracle
  tpois     the twisted-Poisson algebra, its Maurer-Cartan set, gauge fields,
            graph transforms, group action and flow curves
"""

from .graded import (
    GradedSpace,
    HomElt,
    Permutation,
    chi_sign,
    decalage_sign,
    koszul_sign,
    unshuffles,
)
from .gla import DGLA, StructureGLA, adjoint, gla_from_json, gla_to_json, verify_gla
from .linfty import (
    LInfty,
    LInftyOne,
    MCError,
    MCReport,
    from_antisymmetric,
    gauge_field,
    mc_residual,
    relations_residual,
    to_antisymmetric,
    twist,
)
from .polygeo import (
    PolyForm,
    PolyMultivector,
    coiso_projection,
    contract_form,
    de_rham,
    fiber_translate,
    multi_sharp,
    schouten,
    sharp,
)
from .qgeom import SuperPoly, eval_on_base, oracle_bracket, super_bracket
from .tpois import (
    AffineDiffeo,
    TPoisElement,
    e_b_pi,
    flow_curve,
    gauge_Y,
    generator_match,
    group_act,
    group_mul,
    tpois_bracket,
    tpois_linfty,
    tpois_mc_residual,
)
from .vdata import (
    BigElt,
    VData,
    big_algebra,
    machine_check,
    p_phi,
    restrict,
    small_algebra,
    twist_vdata,
    validate_vdata,
)

__all__ = [name for name in dir() if not name.startswith("_")]
