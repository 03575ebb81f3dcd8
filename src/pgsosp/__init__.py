"""REINFORCE policy gradient on tabular MDPs with second-order diagnostics.

Modules by concern:

* :mod:`pgsosp.mdp` - finite MDPs, trajectory sampling, exact DP quantities
* :mod:`pgsosp.policy` - differentiable policy families and regularity bounds
* :mod:`pgsosp.estimators` - Monte-Carlo gradient/Hessian/Fisher estimators
* :mod:`pgsosp.oracle` - exact small-problem references
* :mod:`pgsosp.sosp` - eigenanalysis, region labels, constants, budgets
* :mod:`pgsosp.trainer` - instrumented runs and the escape and trap verifiers
* :mod:`pgsosp.cli` - the `pgsosp` command
"""

from .errors import (
    ConfigError,
    EnumerationCapError,
    OracleConsistencyError,
    PgsospError,
    PolicyDomainError,
    PreconditionError,
)

__all__ = [
    "ConfigError",
    "EnumerationCapError",
    "OracleConsistencyError",
    "PgsospError",
    "PolicyDomainError",
    "PreconditionError",
]

__version__ = "0.1.0"
