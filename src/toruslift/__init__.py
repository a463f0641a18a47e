"""toruslift: exact obstruction calculus for lifting local torus actions.

The package decides, over finite exact-arithmetic models, whether a local
torus action on a manifold-with-corners quotient lifts equivariantly to a
principal torus bundle: Cech cocycle checks and holonomy, semidirect-product
actions on fiber products, a finite group-cohomology complex with a solver
over Z/m' (and the integer Smith normal form as its reference), and the
obstruction pipeline with a worked cylinder family.
"""

from .errors import (  # noqa: F401
    Error, DimensionError, UnimodularError, IncompleteCocycle,
    DisconnectedNerve, NoCorrection, OutOfModel, NotOnSpace, AssemblyError,
    ReconstructionError, InvalidSigma, InputError, ScenarioError,
)
from .torus import (  # noqa: F401
    Angle, TorusPoint, PolarPoint, CornerPoint, TorusAut,
    mod1, angle, format_angle, torus_point, point_add, point_neg, zero_point,
    polar, standard_act, moment_map, stratum,
)
from .smith import (  # noqa: F401
    SmithSystem, SolveResult, ModularEchelon, SmithNF, smith_solve,
    verify_solution, verify_certificate,
)
from .nerve import (  # noqa: F401
    Nerve, GLCocycle, CocycleReport, HolonomyReport, ChartCorrections,
    check_cocycle, apply_coboundary, holonomy, chart_corrections,
)
from .groups import (  # noqa: F401
    FPGroup, Representation, SemidirectElement, FiberedPoint, AtlasModel,
    semidirect_identity, semidirect_mul, semidirect_inv, act_fiber_product,
    transport_rep, transport_corrections,
)
from .cochain import (  # noqa: F401
    FiniteModule, CochainTable, u_keys, build_finite_module, zero_cochain,
    cochain_add, coboundary, is_cocycle, pi1_act,
)
from .lifting import (  # noqa: F401
    ChartLifting, GluingData, GlobalLifting, SigmaTable, Certificate,
    ObstructionReport, check_chart_lifting, check_gluing,
    check_equivariant_gluing, assemble_global_lifting, sigma_word,
    compute_sigma, deck_coboundary, test_vanishing, reconstruct_lifting,
)
from .cylinder import (  # noqa: F401
    CylParams, CylPoint, CylBundlePoint, CylScenario, SHEAR,
    canonicalize, g_act, torus_act, deck_translate, lift_act, compose,
    seam_point, build_scenario,
)
from .scenario import (  # noqa: F401
    Scenario, parse_scenario, emit_scenario, scenario_from_cylinder,
)

__version__ = "0.1.0"
