import numpy as np
import pytest

from growthfpt import GrowthParams

BASE = dict(gamma=0.5, n=1.0, k=20.0, x0=1.0, t0=0.0)


@pytest.fixture
def params_sigmoid() -> GrowthParams:
    return GrowthParams(p=1.5, **BASE)


@pytest.fixture
def params_by_p():
    def make(p: float) -> GrowthParams:
        return GrowthParams(p=p, **BASE)
    return make


def random_valid_params(rng: np.random.Generator) -> GrowthParams:
    """Draw parameters satisfying every declared constraint, redrawing the
    p>1/large-t0 corner where the reparametrization has no real solution."""
    from growthfpt import DomainError, domain_end
    while True:
        n = rng.uniform(0.4, 3.0)
        k = rng.uniform(2.0, 80.0)
        params = GrowthParams(
            gamma=rng.uniform(0.1, 1.5),
            n=n,
            p=rng.uniform(0.1, 1.0 + 1.0 / n - 0.05),
            k=k,
            x0=rng.uniform(0.05, 0.8) * k,
            t0=rng.uniform(0.0, 1.5),
        )
        if abs(params.p - 1.0) < 1e-4:
            continue
        try:
            domain_end(params)
        except DomainError:
            continue
        return params

