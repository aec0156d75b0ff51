"""Net-damping screening of PLL synchronization stability in multi-converter grids.

The package answers three questions about a lossless multi-converter network:

* **Is it stable?**  The positive-net-damping criterion evaluates the
  converter-side and network-side damping at every frequency where the total
  spring coefficient crosses zero; the worst crossing yields the indicator
  D_net1, the margin, and the verdict.
* **Who is responsible?**  The indicator decomposes exactly into per-converter
  weights η_i ≥ 0, which rank the converters by influence and name a dominant
  one.  They are not derivatives: the exact ∂D_net1/∂P_i differs from −η_i
  (see :mod:`syncstab.modal`).
* **Is the verdict right?**  An independent reduced-order state-space model of
  the same physics provides eigenvalues and time-domain simulation to
  cross-check every verdict.

Entry points: :func:`syncstab.pipeline.run_analysis`,
:func:`syncstab.pipeline.run_oracle`, and the ``syncstab`` CLI.
"""
from .config import (AnalysisOptions, Branch, Converter, PowerSetpoint,
                     SystemSpec, load_system_spec, parse_system_spec,
                     serialize, validate)
from .errors import (AnalysisError, ConfigSyntaxError, NetworkError,
                     PowerFlowError, SpecValidationError, SyncstabError,
                     Violation)
from .frequency_response import (OperatingPoint, SubsystemCurves, build_gnet,
                                 build_gnet_sym, crossing_window, gamma, trace_curves)
from .modal import (AdjustmentResult, FDCheck, ModalWeights, Sensitivities,
                    adjustment_compare, finite_difference_check, modal_weights,
                    modal_weights_from_report, sensitivities)
from .network import ReducedNetwork, assemble_laplacian, build_reduced_network, kron_reduce
from .pipeline import AnalysisResult, assess_point, operating_point, run_analysis, run_oracle
from .powerflow import SteadyState, solve_steady_state
from .stability import (MARGINAL_BAND, CriticalPoint, Crossing,
                        StabilityReport, SubsystemAssessment, assess,
                        find_crossings)
from .statespace import (AnglePulse, CrossCheck, DominantMode, ModeSet,
                         SimResult, StateSpace, assemble_state_space,
                         crosscheck, modes, simulate)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # config
    "SystemSpec", "Branch", "Converter", "PowerSetpoint", "AnalysisOptions",
    "parse_system_spec", "load_system_spec", "validate", "serialize",
    # errors
    "SyncstabError", "ConfigSyntaxError", "SpecValidationError", "Violation",
    "NetworkError", "PowerFlowError", "AnalysisError",
    # network / powerflow
    "ReducedNetwork", "assemble_laplacian", "kron_reduce", "build_reduced_network",
    "SteadyState", "solve_steady_state",
    # frequency response
    "OperatingPoint", "SubsystemCurves", "gamma", "build_gnet", "build_gnet_sym",
    "trace_curves", "crossing_window",
    # stability
    "MARGINAL_BAND", "Crossing", "SubsystemAssessment", "CriticalPoint",
    "StabilityReport", "find_crossings", "assess",
    # modal
    "ModalWeights", "Sensitivities", "FDCheck", "AdjustmentResult",
    "modal_weights", "modal_weights_from_report", "sensitivities",
    "finite_difference_check", "adjustment_compare",
    # oracle
    "StateSpace", "DominantMode", "ModeSet", "AnglePulse", "SimResult",
    "CrossCheck", "assemble_state_space", "modes", "simulate", "crosscheck",
    # pipeline
    "AnalysisResult", "operating_point", "run_analysis", "assess_point", "run_oracle",
]
