"""Vertical Lyapunov families of the regular n-gon relative equilibrium.

Equal unit masses, G = 1.  The package computes the vertical and
horizontal spectra of the n-gon, the symmetry groups of the bifurcating
vertical families, global action-minimization bounds, the torsion of the
bifurcation (expansion of the rotation number in the amplitude), and
continues the families numerically.  Positions are plain (n, 3) arrays
and loops `LoopPath` samples.  `__all__` holds the names that the command
line, the benchmark or a claim of the paper needs; the README's "Public
surface" table gives the use of each.
"""

from .errors import (CollisionError, DegenerateSystem, IntegrationFailure,
                     NoConvergence, SingularReduction, UnsupportedCase)
from .ngon import (LoopPath, NGonSystem, action, angular_momentum_z, gravity,
                   newton_residual, potential, rescale, wintner_matrix)
from .spectrum import (ConvexityReport, HorizontalSpectrum, VerticalSpectrum,
                       convexity_report, fold_mode, horizontal_spectrum,
                       lyapunov_cylinder, vertical_spectrum)
from .minimize import (BarActionParams, BoundReport, absolute_interval,
                       bar_action, horizontal_bounds_H, lambda_G_bruteforce,
                       vertical_bound_V)
from .symmetry import (FourierConstraints, GroupElement, GroupSpec,
                       StructureReport, apply_element, compose,
                       dense_choreography_params, element_order,
                       enumerate_elements, find_isomorphism,
                       invariance_defect, inverse, is_simple_choreography,
                       make_element, structure_report)
from .torsion import (ExpansionResult, build_equations, excluded_harmonics,
                      reconstruct_loop, torsion_gamma)

# served on first access (PEP 562): continuation imports scipy, which the
# exact layers and their CLI subcommands never need
_CONTINUATION = (
    "ActionDiagram", "ContinuationResult", "FamilyRecord",
    "IntegrationResult", "PeriodicOrbit", "action_diagram",
    "continue_family", "integrate", "monodromy", "onset_state",
    "re_branch_action", "shoot_symmetric", "write_family_csv",
)


def __getattr__(name):
    if name in _CONTINUATION:
        from . import continuation
        return getattr(continuation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CollisionError", "DegenerateSystem", "IntegrationFailure",
    "NoConvergence", "SingularReduction", "UnsupportedCase",
    "LoopPath", "NGonSystem", "action", "angular_momentum_z", "gravity",
    "newton_residual", "potential", "rescale", "wintner_matrix",
    "ConvexityReport", "HorizontalSpectrum", "VerticalSpectrum",
    "convexity_report", "fold_mode", "horizontal_spectrum",
    "lyapunov_cylinder", "vertical_spectrum",
    "FourierConstraints", "GroupElement", "GroupSpec", "StructureReport",
    "apply_element", "compose", "dense_choreography_params",
    "element_order", "enumerate_elements", "find_isomorphism",
    "invariance_defect", "inverse", "is_simple_choreography",
    "make_element", "structure_report",
    "BarActionParams", "BoundReport", "absolute_interval", "bar_action",
    "horizontal_bounds_H", "lambda_G_bruteforce", "vertical_bound_V",
    "ExpansionResult", "build_equations", "excluded_harmonics",
    "reconstruct_loop", "torsion_gamma",
    *_CONTINUATION,
]

__version__ = "0.1.0"
