"""Vertical Lyapunov families of the regular n-gon relative equilibrium.

Equal unit masses, G = 1.  The package computes the vertical and
horizontal spectra of the n-gon, the symmetry groups of the bifurcating
vertical families, global action-minimization bounds, the torsion of the
bifurcation (expansion of the rotation number in the amplitude), and
continues the families numerically.
"""

from .errors import (CollisionError, DegenerateSystem, IntegrationFailure,
                     NoConvergence, SingularReduction, UnsupportedCase)
from .ngon import (Configuration, LoopPath, NGonSystem, RotatingFrame,
                   action, angular_momentum_z, build_ngon, gravity,
                   newton_residual, potential, rescale, wintner_matrix)
from .spectrum import (ConvexityReport, HorizontalSpectrum, VerticalSpectrum,
                       check_monotone, convexity_report, fold_mode,
                       horizontal_spectrum, lyapunov_cylinder,
                       pacella_moeckel, vertical_spectrum)
from .minimize import (BarActionParams, BoundReport, absolute_interval,
                       bar_action, hessian_vertical, horizontal_bounds_H,
                       italian_bound, lambda_G_bruteforce, vertical_bound_V)
from .symmetry import (FourierConstraints, GroupElement, GroupSpec,
                       StructureReport, apply_element, compose,
                       dense_choreography_params, element_order,
                       enumerate_elements, find_isomorphism,
                       fourier_constraints, identity_element,
                       invariance_defect, inverse, is_invariant,
                       is_simple_choreography, make_element,
                       structure_report)
from .torsion import (ExpansionResult, build_equations, excluded_harmonics,
                      reconstruct_loop, torsion_gamma)

# served on first access (PEP 562): continuation imports scipy, which the
# exact layers and their CLI subcommands never need
_CONTINUATION = (
    "ActionDiagram", "ContinuationResult", "FamilyRecord",
    "IntegrationResult", "PeriodicOrbit", "action_diagram",
    "continue_family", "integrate", "monodromy", "onset_state",
    "re_branch_action", "shoot_symmetric", "verify_against_continuation",
    "write_family_csv",
)


def __getattr__(name):
    if name in _CONTINUATION:
        from . import continuation
        return getattr(continuation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CollisionError", "DegenerateSystem", "IntegrationFailure",
    "NoConvergence", "SingularReduction", "UnsupportedCase",
    "Configuration", "LoopPath", "NGonSystem", "RotatingFrame",
    "action", "angular_momentum_z", "build_ngon", "gravity",
    "newton_residual", "potential", "rescale", "wintner_matrix",
    "ConvexityReport", "HorizontalSpectrum", "VerticalSpectrum",
    "check_monotone", "convexity_report", "fold_mode",
    "horizontal_spectrum", "lyapunov_cylinder", "pacella_moeckel",
    "vertical_spectrum",
    "FourierConstraints", "GroupElement", "GroupSpec", "StructureReport",
    "apply_element", "compose", "dense_choreography_params",
    "element_order", "enumerate_elements", "find_isomorphism",
    "fourier_constraints", "identity_element", "invariance_defect",
    "inverse", "is_invariant", "is_simple_choreography", "make_element",
    "structure_report",
    "BarActionParams", "BoundReport", "absolute_interval", "bar_action",
    "hessian_vertical", "horizontal_bounds_H", "italian_bound",
    "lambda_G_bruteforce", "vertical_bound_V",
    "ExpansionResult", "build_equations", "excluded_harmonics",
    "reconstruct_loop", "torsion_gamma", "verify_against_continuation",
    "ActionDiagram", "ContinuationResult", "FamilyRecord",
    "IntegrationResult", "PeriodicOrbit", "action_diagram",
    "continue_family", "integrate", "monodromy", "onset_state",
    "re_branch_action", "shoot_symmetric", "write_family_csv",
]

__version__ = "0.1.0"
