"""Property test over the family table: every entry's closed forms agree
with the numerical pipeline and with the command line.

A family added to ``FAMILIES`` without a parameter strategy here, without a
flag per parameter, or without a closed form fails these tests.
"""

import dataclasses
import json
import math
from contextlib import redirect_stdout
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinchsh import cli
from spinchsh.correlations import (VIOLATION_TOL, analytic_gamma, chsh_analysis,
                                   correlation_matrix_coeff, correlation_matrix_trace)
from spinchsh.entanglement import analytic_concurrence, concurrence_pure
from spinchsh.spin import spin_operators
from spinchsh.states import FAMILIES, family_pure, family_state

TOL = 1e-10
# Printed floats carry 12 significant digits.
CLI_TOL = 1e-10

_unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def _unit_triple(draw):
    z = np.array([complex(draw(_unit), draw(_unit)) for _ in range(3)])
    norm = np.linalg.norm(z)
    if norm < 1e-3:
        z, norm = np.array([1, 0, 0], dtype=complex), 1.0
    return tuple(complex(c) for c in z / norm)


@st.composite
def _qutrit_density(draw):
    g = np.array([complex(draw(_unit), draw(_unit)) for _ in range(9)]).reshape(3, 3)
    rho = g @ g.conj().T + 1e-3 * np.eye(3)
    rho = (rho + rho.conj().T) / 2
    return rho / rho.trace().real


# In-domain constructor arguments for each family, by command-line name.
PARAMETERS = {
    "antisym": _unit_triple(),
    "sym": _unit_triple(),
    "ghz3": st.just(()),
    "werner": st.tuples(st.floats(-1.0, 1.0)),
    "horodecki": st.tuples(st.floats(2.0, 5.0)),
    "example1": st.tuples(st.floats(0.0, 1.0)),
    "example2": st.tuples(st.floats(0.0, 1.0)),
    "product": st.tuples(_qutrit_density(), _qutrit_density()),
}


def _flag_values(family, args, workdir):
    """Command-line words that give ``args`` to ``family``."""
    words = []
    for flag, value in zip(family.flags, args):
        if isinstance(value, np.ndarray):  # a product factor, passed as a file
            path = workdir / f"{flag.name[2:]}.json"
            path.write_text(json.dumps({"matrix": [[float(x.real), float(x.imag)]
                                                   for x in value.reshape(-1)]}))
            value = path
        # "--flag=value": argparse reads "-1e-49" after a space as a flag
        words.append(f"{flag.name}={value}")
    return words


def test_every_family_has_parameters_flags_and_closed_forms():
    assert list(PARAMETERS) == list(FAMILIES)
    for family in FAMILIES.values():
        assert len(family.flags) == len(dataclasses.fields(family))
        assert callable(family.gamma) and callable(family.state)
        assert callable(getattr(family, "concurrence", None)) == family.pure


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("families")


@pytest.mark.parametrize("name", list(FAMILIES))
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(data=st.data())
def test_closed_forms_match_pipeline_and_cli(name, data, workdir):
    family = FAMILIES[name]
    args = data.draw(PARAMETERS[name])
    spec = family(*args)

    gamma = analytic_gamma(spec)
    rho = family_state(spec)
    trace = chsh_analysis(correlation_matrix_trace(rho, spin_operators(1))).gamma
    coeff = chsh_analysis(correlation_matrix_coeff(rho)).gamma
    assert abs(gamma - trace) <= TOL
    assert abs(gamma - coeff) <= TOL

    if family.pure:
        assert abs(analytic_concurrence(spec) - concurrence_pure(family_pure(spec))) <= TOL
    else:
        with pytest.raises(ValueError):
            analytic_concurrence(spec)

    out = StringIO()
    with redirect_stdout(out):
        code = cli.main(["gamma", "--family", name, *_flag_values(family, args, workdir)])
    printed = json.loads(out.getvalue())["gamma"]
    assert code == (3 if gamma > 1 + VIOLATION_TOL else 0)
    assert math.isclose(printed, gamma, rel_tol=0, abs_tol=CLI_TOL)
