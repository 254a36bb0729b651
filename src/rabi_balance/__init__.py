"""Balance identities and variational bounds for a spin-oscillator model.

The package splits into small layers: `fock` holds the truncated
oscillator algebra, `model` the Hamiltonians and parity bookkeeping,
`solver` the exact ground state, `balance` the identity and bound
checks, `variational` the displaced-squeezed trial family, and `cli`
the command-line front end.  `oracle` holds the dense matrices the tests
check them against; its public names load on first access.
"""

from .balance import (
    BalanceReport,
    BoundCheck,
    b1_kinetic_balance,
    b2_variance_bounds,
    b7_covariance_balance,
    displaced_number,
    first_order_residual,
    full_report,
    property_checks,
    report_passes,
    second_order_residual,
    standard_observables,
    wigner_energy_bounds,
    wigner_origin,
)
from .errors import (
    AmplitudeTooLarge,
    ConfigError,
    DimensionMismatch,
    EigDecompositionFailure,
    NonHermitian,
    NotConverged,
    OptimizerStalled,
    RabiError,
    SectorRequired,
    SqueezeTooLarge,
)
from .fock import (
    BOSON,
    SPIN_BOSON,
    FockRep,
    QuantumState,
    expectation,
    fock_state,
    variance,
)
from .model import (
    ModelParams,
    embed_reduced_state,
    extract_reduced_state,
    infer_sector,
)
from .solver import GroundSolution, convergence_table, solve_rabi_ground
from .variational import (
    TrialParams,
    VariationalResult,
    balance_residuals,
    energy_closed_form,
    minimize_energy,
    stationarity_equals_balance,
    trial_state,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # the names of __all__ not imported above are the oracle's; it is
    # imported on first use, so that no command loads it
    if name in __all__:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AmplitudeTooLarge",
    "BOSON",
    "BalanceReport",
    "BoundCheck",
    "ConfigError",
    "DimensionMismatch",
    "EigDecompositionFailure",
    "FockRep",
    "GroundSolution",
    "ModelParams",
    "NonHermitian",
    "NotConverged",
    "Observable",
    "OptimizerStalled",
    "QuantumState",
    "RabiError",
    "SPIN_BOSON",
    "SectorRequired",
    "SqueezeTooLarge",
    "TrialParams",
    "VariationalResult",
    "b1_kinetic_balance",
    "b2_variance_bounds",
    "b7_covariance_balance",
    "balance_residuals",
    "build_full_hamiltonian",
    "build_ladder",
    "build_parity_operator",
    "build_quadratures",
    "build_reduced_hamiltonian",
    "convergence_table",
    "displaced_number",
    "displacement",
    "embed_reduced_state",
    "energy_closed_form",
    "energy_numeric",
    "expectation",
    "extract_reduced_state",
    "first_order_residual",
    "fock_state",
    "full_report",
    "infer_sector",
    "minimize_energy",
    "property_checks",
    "report_passes",
    "second_order_residual",
    "solve_rabi_ground",
    "squeeze",
    "stationarity_equals_balance",
    "standard_observables",
    "trial_property_compliance",
    "trial_state",
    "variance",
    "wigner_energy_bounds",
    "wigner_origin",
]
