"""Balance identities and variational bounds for a spin-oscillator model.

The package splits into small layers: `model` holds the parameters and
the parity-sector chains, `solver` the exact ground state, `balance` the
identity and bound checks on a sector vector, `variational` the
displaced-squeezed trial family, and `cli` the command-line front end.
These runtime layers hand out floats: a sector vector or a trial's
amplitudes is a tuple or list of them.  `fock` holds the states
(`QuantumState`) and the lift of a sector vector to the spin-boson space
and back; `oracle` holds every operator and what the tests check the
runtime against: the dense matrices, expectations and variances, the
trial states, and the balance suite on spin-boson states.  Every public
name below is imported from its submodule on first access, so importing
the package alone loads none of them.  numpy is loaded by `fock` and
`oracle` and by the trial simplex in `variational`, and by nothing else:
`model`, `balance` and `solver` run on Python floats until a
`QuantumState` is asked for.
"""

__version__ = "0.1.0"

# Each public name and the submodule that defines it.  Importing the root
# loads no submodule, and so not numpy: ``rabi_balance.cli`` sets the BLAS
# thread count before numpy loads, and a library user's environment is
# left alone.
_HOMES = {
    "balance": ("BalanceReport", "BoundCheck", "literal_variants", "report_passes"),
    "errors": (
        "AmplitudeTooLarge", "ConfigError", "DimensionMismatch", "EigDecompositionFailure",
        "NonHermitian", "NotConverged", "OptimizerStalled", "RabiError", "SectorRequired",
        "SqueezeTooLarge",
    ),
    "fock": (
        "BOSON", "SPIN_BOSON", "FockRep", "QuantumState", "embed_reduced_state",
        "extract_reduced_state", "fock_state", "infer_sector",
    ),
    "model": ("ModelParams",),
    "oracle": (
        "Observable", "b1_kinetic_balance", "b7_covariance_balance", "build_full_hamiltonian",
        "build_ladder", "build_parity_operator", "build_quadratures",
        "build_reduced_hamiltonian", "displaced_number", "displacement", "energy_numeric",
        "expectation", "first_order_residual", "full_report", "second_order_residual", "squeeze",
        "standard_observables", "trial_property_compliance", "trial_state", "variance",
        "wigner_energy_bounds", "wigner_origin",
    ),
    "solver": ("GroundSolution", "convergence_table", "solve_rabi_ground"),
    "variational": (
        "TrialParams", "VariationalResult", "balance_residuals", "energy_closed_form",
        "minimize_energy", "stationarity_equals_balance",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}


def __getattr__(name: str):
    if name in _HOME:
        import importlib

        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value  # later reads skip this hook
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted(_HOME)
