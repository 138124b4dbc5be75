import numpy as np
import pytest
from hypothesis import settings

from duhamelcheb import build_reference_example, heat_basis

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def basis64():
    return heat_basis(64)


@pytest.fixture(scope="session")
def reference_problem():
    return build_reference_example(M=128)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def render_per_cell(table) -> str:
    """``Table.to_csv`` as it was before distinct-value rendering: one
    ``str`` or ``repr(float(v))`` call per cell."""
    lines = [f"# {n}" for n in table.notes]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def per_cell_csv():
    return render_per_cell
