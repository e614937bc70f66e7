"""Model checking of synchronized branching-time properties over one-counter
automata, with a brute-force oracle and periodicity analysis."""

from .errors import (
    BudgetExceededError,
    FormulaSyntaxError,
    OcaSyntaxError,
    StepCapExceededError,
)
from .formula import Formula, Kind, parse_formula, pretty, subformulas
from .mc import (
    CheckResult, Kripke, check_oca, check_ua_on_kripke, check_ue_on_kripke, cross_check, unfold_kripke,
)
from .oca import Configuration, Oca, OracleTrace, level_sets, successors, validate
from .oracle import BoundedEvaluator, Verdict, eval_bounded, mine_period
from .periodicity import ConstantBundle, TpPair, ctl_constants, ua_constants
from .upset import UpSet

__version__ = "0.1.0"

__all__ = [
    "BoundedEvaluator",
    "BudgetExceededError",
    "CheckResult",
    "Configuration",
    "ConstantBundle",
    "Formula",
    "FormulaSyntaxError",
    "Kind",
    "Kripke",
    "Oca",
    "OcaSyntaxError",
    "OracleTrace",
    "StepCapExceededError",
    "TpPair",
    "UpSet",
    "Verdict",
    "check_oca",
    "check_ua_on_kripke",
    "check_ue_on_kripke",
    "cross_check",
    "ctl_constants",
    "eval_bounded",
    "level_sets",
    "mine_period",
    "parse_formula",
    "pretty",
    "subformulas",
    "successors",
    "ua_constants",
    "unfold_kripke",
    "validate",
]
