import numpy as np
import pytest

from gnsentropy import example_generators, star_algebra, wedderburn, PRESET_NAMES


@pytest.fixture(scope="session")
def presets():
    """Preset (span, family) pairs, built once per session."""
    return {name: example_generators(name) for name in PRESET_NAMES}


@pytest.fixture(scope="session")
def preset_blocks(presets):
    """Block decompositions of the preset spans (state independent)."""
    return {name: wedderburn(span, seed=0) for name, (span, _) in presets.items()}


@pytest.fixture(scope="session")
def preset_cases(presets):
    """Representative (name, span, state) samples across every preset."""
    cases = []

    def add(name, **params):
        span, family = presets[name]
        cases.append((name, span, family.state(params)))

    for lam in (0.0, 0.37, 1.0):
        add("ex1_m2", **{"lambda": lam})
    add("ex2_bell")
    add("ex3_choice1", theta=0.9)
    for theta in (0.0, 0.7, np.pi / 2):
        add("ex3_choice2", theta=theta)
        add("ex4_left", theta=theta)
    add("ex5_bosons", theta=1.0, phi=0.8)
    add("ex5_bosons", theta=np.pi / 2, phi=0.0)
    return cases


#: Splits of the identity into projections that are not central, as the
#: coordinate columns spanning each range: on M_2 (the block route of
#: ex1_m2) and on its 4-dim GNS space under a faithful state (the GNS
#: route, whose commutant is 1_2 (x) M_2).
NON_CENTRAL_SPLITS = {
    2: [[0], [1]],
    4: [[0], [1, 2, 3]],
}


@pytest.fixture
def non_central_projections(monkeypatch):
    """Both routes take NON_CENTRAL_SPLITS in place of their minimal projections."""
    def fake(commutatives, cluster_tol=None):
        eyes = [np.eye(Z.ambient_dim, dtype=complex) for Z in commutatives]
        return [[eye[:, cols] for cols in NON_CENTRAL_SPLITS[len(eye)]] for eye in eyes]

    monkeypatch.setattr(star_algebra, "minimal_projections", fake)
