import pytest

from layerforge import corrections, problem
from layerforge.acceptance import AcceptanceContext

#: the curved instance of the generated family (perfbench.problems,
#: generate(1, 1)): unlike the built-ins, its outer roots have a slope at
#: the layer point (phi1'(t0) = 0.0748 at t0 = 0.3922)
CURVED = {
    "name": "gen-curved-4",
    "b": "(u-0.0717*sin(1*3.14159265358979*x))"
         "*(u-((0.5-0.4144*(x-0.3922))+0.0717*sin(1*3.14159265358979*x)))"
         "*(u-(1+0.0717*sin(1*3.14159265358979*x)))",
    "phi0": "(0.5-0.4144*(x-0.3922))+0.0717*sin(1*3.14159265358979*x)",
    "phi1": "0.0717*sin(1*3.14159265358979*x)",
    "phi2": "1+0.0717*sin(1*3.14159265358979*x)",
    "g0": 0.0,
    "g1": 1.0,
    "epsilon": 0.008693,
}

#: tail rates 0.94 (minus side) and 10.76 (plus side): the correction grid's
#: range follows the smaller one, so on the plus branch the profile weight
#: underflows to 0 from s = 69.2 to the grid end at 87.2
UNDERFLOW = {
    "name": "steep-tail",
    "b": "u*(u-(0.88426-0.1*(x-0.5)))*(u-1)*(1+1000*u^20)",
    "phi0": "0.88426-0.1*(x-0.5)",
    "phi1": "0",
    "phi2": "1",
    "g0": 0.0,
    "g1": 1.0,
    "epsilon": 0.01,
}


@pytest.fixture(scope="session")
def actx():
    """Shared pipeline cache; the expensive builds happen once per session."""
    return AcceptanceContext()


@pytest.fixture(scope="session")
def cubic(actx):
    return actx.pipeline("cubic")


@pytest.fixture(scope="session")
def wavy(actx):
    return actx.pipeline("cubic-wavy")


@pytest.fixture(scope="session")
def cubic_terms(actx):
    return actx.terms("cubic")


@pytest.fixture(scope="session")
def wavy_terms(actx):
    return actx.terms("cubic-wavy")


@pytest.fixture(scope="session")
def curved_data():
    return dict(CURVED)


@pytest.fixture(scope="session")
def curved():
    """(spec, loc, kink) of CURVED, as AcceptanceContext.pipeline gives."""
    spec = problem.problem_from_dict(CURVED)
    return (spec, *corrections.locate_and_match(spec))


@pytest.fixture(scope="session")
def underflow_data():
    return dict(UNDERFLOW)
