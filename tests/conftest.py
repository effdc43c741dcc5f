import pytest

from growthfpt import GrowthParams
from growthfpt.validate import BASE


@pytest.fixture
def params_sigmoid() -> GrowthParams:
    return GrowthParams(p=1.5, **BASE)


@pytest.fixture
def params_by_p():
    def make(p: float) -> GrowthParams:
        return GrowthParams(p=p, **BASE)
    return make

