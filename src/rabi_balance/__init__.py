"""Balance identities and variational bounds for a spin-oscillator model.

The package splits into small layers: `model` holds the parameters and
the parity-sector chains, `solver` the exact ground state, `balance` the
identity and bound checks on a sector vector, `variational` the
displaced-squeezed trial family, and `cli` the command-line front end.
These runtime layers hand out floats: a sector vector or a trial's
amplitudes is a tuple or list of them.  The root's public names
(``__all__``) are theirs and the errors': `from rabi_balance import *`
loads `errors`, `model`, `balance`, `solver` and `variational`, and no
numpy, which only the trial simplex's energy imports, at its first call.

`fock` (the states and the lift of a sector vector to the spin-boson
space) and `oracle` (every operator, as dense numpy matrices, and the
balance suite on spin-boson states) are the reference the tests check
the runtime against; import their names from those modules.  Four of
them, which the benchmark imports from the root, still resolve here,
outside ``__all__``.  ``GroundSolution.state`` and ``boson_state`` load
`fock` on each read.  Every name is imported from its submodule on first
access, so importing the package alone loads none of them.
"""

__version__ = "0.1.0"

# Each public name and the submodule that defines it.  Importing the root
# loads no submodule, and so not numpy: ``rabi_balance.cli`` sets the BLAS
# thread count before numpy loads, and a library user's environment is
# left alone.
_HOMES = {
    "balance": ("BalanceReport", "BoundCheck", "literal_variants", "report_passes",
                "sector_report"),
    "errors": (
        "AmplitudeTooLarge", "ConfigError", "DimensionMismatch", "EigDecompositionFailure",
        "NonHermitian", "NotConverged", "OptimizerStalled", "RabiError", "SectorRequired",
        "SqueezeTooLarge",
    ),
    "model": ("ModelParams",),
    "solver": ("GroundSolution", "convergence_table", "solve_rabi_ground"),
    "variational": (
        "TrialParams", "VariationalResult", "balance_residuals", "energy_closed_form",
        "minimize_energy", "stationarity_equals_balance",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME)

# The benchmark's oracle check and traced pass import these four from the
# root: they resolve here but are not public, and go when the benchmark
# imports them from `fock` and `oracle` (ROADMAP item 1).
_HOME.update(FockRep="fock", build_full_hamiltonian="oracle", full_report="oracle",
             wigner_origin="oracle")


def __getattr__(name: str):
    if name in _HOME:
        import importlib

        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value  # later reads skip this hook
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
