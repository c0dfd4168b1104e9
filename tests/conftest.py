import pytest

from layerforge import corrections, problem
from layerforge.acceptance import AcceptanceContext


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
    """The curved instance of the generated family (perfbench.problems,
    generate(1, 1)): unlike the built-ins, its outer roots have a slope at
    the layer point (phi1'(t0) = 0.0748 at t0 = 0.3922)."""
    return dict(problem.REFERENCE_PROBLEMS["gen-curved-4"])


@pytest.fixture(scope="session")
def curved(curved_data):
    """(spec, loc, kink) of curved_data, as AcceptanceContext.pipeline
    gives."""
    spec = problem.problem_from_dict(curved_data)
    return (spec, *corrections.locate_and_match(spec))


@pytest.fixture(scope="session")
def underflow_data():
    """Tail rates 0.94 (minus side) and 10.76 (plus side): the correction
    grid's range follows the smaller one, so on the plus branch the profile
    weight underflows to 0 before the grid end at 87.2."""
    return dict(problem.REFERENCE_PROBLEMS["steep-tail"])
