"""Session fixtures: generated regular codes reused across test modules.

Generation parameters were chosen so every fixture builds in well under a
second; seeds are fixed so all expectations stay reproducible.
"""

import shutil
import tempfile

import pytest

from ldpcbounds import build_tanner_graph, generate_code

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # with database=None hypothesis keeps no example database, but it still
    # caches the constants of local modules under .hypothesis/ in the working
    # directory; give it a temporary home for the session instead
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:
        return
    config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(config.stash[_HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    if _HYPOTHESIS_HOME in config.stash:
        shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)


@pytest.fixture(scope="session")
def code_g3_girth8_n96():
    return generate_code(96, 3, 4, 8, seed=1)


@pytest.fixture(scope="session")
def code_g3_girth8_n60():
    return generate_code(60, 3, 4, 8, seed=1)


@pytest.fixture(scope="session")
def code_g3_girth8_n30():
    return generate_code(30, 3, 3, 8, seed=7)


@pytest.fixture(scope="session")
def code_g3_girth6_n24():
    return generate_code(24, 3, 4, 6, seed=5)


@pytest.fixture(scope="session")
def code_g3_girth6_n12():
    return generate_code(12, 3, 4, 6, seed=1)


@pytest.fixture(scope="session")
def code_g4_girth8_n128():
    return generate_code(128, 4, 4, 8, seed=1)


@pytest.fixture(scope="session")
def code_g4_girth6_n32():
    return generate_code(32, 4, 4, 6, seed=3)


@pytest.fixture(scope="session")
def code_g5_girth6_n50():
    return generate_code(50, 5, 5, 6, seed=2)


@pytest.fixture(scope="session")
def code_g5_girth6_n100():
    return generate_code(100, 5, 5, 6, seed=2)


@pytest.fixture(scope="session")
def eight_cycle_code():
    # 4 variables and 4 checks joined in a single 8-cycle; 1111 is a codeword
    edges = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (0, 3)]
    return build_tanner_graph(edges)


@pytest.fixture(scope="session")
def pendant_square_code():
    """A 4-cycle of variables 1-4 with variable 0 hanging off variable 1, at gamma = 6.

    Each link is a check of degree 2, and degree-1 checks fill every
    variable up to six; Tanner girth 8. A connected subset S has
    ``|N(S)| = 6|S| - (links inside S)``, so the worst ratio, 5, is reached
    at size 4 by the square and at size 5 by the whole code.
    """
    links = [(1, 2), (2, 3), (3, 4), (1, 4), (0, 1)]
    pairs = [(v, c) for c, link in enumerate(links) for v in link]
    spare = len(links)
    for v in range(5):
        for _ in range(6 - sum(v in link for link in links)):
            pairs.append((v, spare))
            spare += 1
    return build_tanner_graph(pairs)
