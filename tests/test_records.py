"""The records the CLI path passes around: immutable, checked and picklable.

``ModelParams``, ``BoundCheck``, ``BalanceReport``, ``GroundSolution``,
``TrialParams``, ``VariationalResult`` and ``AxisRange`` are named
tuples.  A field cannot be set, the three checked records raise the same
exceptions with the same messages for bad fields, made directly or by
``_make`` and ``_replace``, every record survives a pickle round trip (a
sweep's worker returns its results and errors that way), and the JSON a
command prints shows a record as an object, never as a list.
"""

import json
import math
import pickle

import pytest

from rabi_balance import (
    AmplitudeTooLarge,
    ConfigError,
    ModelParams,
    NotConverged,
    SqueezeTooLarge,
    TrialParams,
    cli,
    minimize_energy,
    solve_rabi_ground,
)
from rabi_balance.balance import sector_report
from rabi_balance.cli import AxisRange, main

PARAMS = ModelParams(omega=1.0, lam=0.5, omega0=1.0)


def _records():
    sol = solve_rabi_ground(PARAMS)
    report = sector_report(sol.phi, sol.parity, PARAMS, sol.energy)
    cfg = cli.build_config(cli._build_parser().parse_args(
        ["sweep", "--lambda", "0:1:3", "--omega0", "1", "--jobs", "1"]))
    return {
        "ModelParams": PARAMS,
        "BoundCheck": report.properties["p1"],
        "BalanceReport": report,
        "GroundSolution": sol,
        "TrialParams": TrialParams(-0.3, 0.2),
        "VariationalResult": minimize_energy(PARAMS, exact=sol),
        "AxisRange": cfg["lambda"],
    }


RECORDS = _records()


@pytest.mark.parametrize("name", RECORDS)
def test_a_field_cannot_be_set(name):
    record = RECORDS[name]
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("name", RECORDS)
def test_every_record_survives_a_pickle_round_trip(name):
    record = RECORDS[name]
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert back == record


def test_not_converged_pickles_with_a_read_solution():
    # a pool worker's failure comes back pickled as its message; the solver's
    # best effort (converged false) pickles too, and still makes its states
    sol = solve_rabi_ground(ModelParams(omega=1.0, lam=8.0, omega0=1.0), dim=16)
    amplitudes = sol.boson_state.amplitudes
    back = pickle.loads(pickle.dumps(sol))
    assert back == sol and not back.converged
    assert (back.boson_state.amplitudes == amplitudes).all()
    assert back.state.dim == 2 * len(amplitudes)
    with pytest.raises(NotConverged) as info:
        cli._sweep_point((1.0, 8.0, 1.0, 16, 1e-10))
    exc = info.value
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is NotConverged and str(back) == str(exc)


@pytest.mark.parametrize("kwargs, message", [
    ({"omega": 0.0}, "omega must be > 0, got 0.0"),
    ({"omega": float("nan")}, "omega must be > 0, got nan"),
    ({"omega": float("inf")}, "omega must be finite, got inf"),
    ({"lam": -0.1}, "lam must be >= 0, got -0.1"),
    ({"lam": float("inf")}, "lam must be finite, got inf"),
    ({"omega0": -1.0}, "omega0 must be >= 0, got -1.0"),
    ({"omega0": float("inf")}, "omega0 must be finite, got inf"),
])
def test_model_params_reject_bad_fields(kwargs, message):
    with pytest.raises(ValueError) as info:
        ModelParams(**{"omega": 1.0, "lam": 0.5, "omega0": 1.0, **kwargs})
    assert str(info.value) == message


@pytest.mark.parametrize("beta, gamma, error, message", [
    (7.0, 0.0, AmplitudeTooLarge, "|beta| = 7.0 exceeds 6.0"),
    (-6.5, 3.0, AmplitudeTooLarge, "|beta| = 6.5 exceeds 6.0"),
    (0.0, -2.5, SqueezeTooLarge, "|gamma| = 2.5 exceeds 2.0"),
    (0.0, math.nextafter(2.0, math.inf), SqueezeTooLarge,
     "|gamma| = 2.0000000000000004 exceeds 2.0"),
])
def test_trial_params_reject_bad_fields(beta, gamma, error, message):
    with pytest.raises(error) as info:
        TrialParams(beta, gamma)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("bounds, message", [
    ((0.0, 1.0, 0), "range count must be >= 1, got 0"),
    ((float("-inf"), 1.0, 2), "range bounds must be finite, got -inf:1.0"),
    ((0.0, float("nan"), 2), "range bounds must be finite, got 0.0:nan"),
    ((2.0, 1.0, 2), "range min 2.0 exceeds max 1.0"),
])
def test_axis_range_rejects_bad_fields(bounds, message):
    with pytest.raises(ConfigError) as info:
        AxisRange(*bounds)
    assert str(info.value) == message


@pytest.mark.parametrize("make, direct, message", [
    (lambda: PARAMS._replace(omega=-1.0), lambda: ModelParams(-1.0, 0.5, 1.0),
     "omega must be > 0, got -1.0"),
    (lambda: TrialParams(0.0, 0.0)._replace(beta=9.0), lambda: TrialParams(9.0, 0.0),
     "|beta| = 9.0 exceeds 6.0"),
    (lambda: AxisRange(0.0, 1.0, 3)._replace(count=0), lambda: AxisRange(0.0, 1.0, 0),
     "range count must be >= 1, got 0"),
    (lambda: ModelParams._make([1.0, float("nan"), 1.0]),
     lambda: ModelParams(1.0, float("nan"), 1.0), "lam must be finite, got nan"),
], ids=["ModelParams._replace", "TrialParams._replace", "AxisRange._replace",
        "ModelParams._make"])
def test_replace_and_make_check_like_construction(make, direct, message):
    # namedtuple's own _make, which _replace calls, would skip the checks in __new__
    with pytest.raises(Exception) as want:
        direct()
    with pytest.raises(Exception) as info:
        make()
    assert type(info.value) is type(want.value)
    assert str(info.value) == str(want.value) == message


def test_records_print_as_json_objects(capsys):
    assert main(["variational", "--lambda", "0.5", "--omega0", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"] == {"omega": 1.0, "lam": 0.5, "omega0": 1.0}
    result = payload["result"]
    assert set(result["trial"]) == {"beta", "gamma"}
    assert set(result) == {"trial", "energy", "exact_energy", "gap", "iterations", "converged",
                           "grad_norm", "b1_residual", "b7_residual"}

    assert main(["balance", "--lambda", "0.5", "--omega0", "1"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert set(report) == {"state_energy", "first_order", "second_order", "properties"}
    assert set(report["properties"]["p1"]) == {"value", "lower", "upper", "satisfied"}
