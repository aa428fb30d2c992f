import pytest

from resolvekit import apsp, build_ccc, build_cube_unit, build_lcg, make_graph


@pytest.fixture(scope="session")
def cube():
    return build_cube_unit()


@pytest.fixture(scope="session")
def cube_dist(cube):
    return apsp(cube)


@pytest.fixture(scope="session")
def ccc2():
    return build_ccc(2)


@pytest.fixture(scope="session")
def ccc2_dist(ccc2):
    return apsp(ccc2)


@pytest.fixture(scope="session")
def lcg32():
    return build_lcg(3, 2)


@pytest.fixture(scope="session")
def lcg32_dist(lcg32):
    return apsp(lcg32)


@pytest.fixture(scope="session")
def lcg42():
    return build_lcg(4, 2)


@pytest.fixture(scope="session")
def lcg42_dist(lcg42):
    return apsp(lcg42)


@pytest.fixture(scope="session")
def lcg53_joined():
    """lcg 5,3 with one more vertex joined to 0 and 1, two neighbours on the
    root cycle: the new vertex joins the root cycle's block, which is not a
    leaf block, and is no cut vertex, so the strong cover route's leaf-block
    shortcut declines the graph and the whole-graph cover search runs, 119
    nodes to the optimum 60."""
    g = build_lcg(5, 3)
    return make_graph(g.order + 1, [*g.edges(), (0, g.order), (1, g.order)])
