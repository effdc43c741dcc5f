"""The entry points the benchmark's traced run rebinds by name.

perfbench/tracing.py wraps these functions in every growthfpt module that
holds them and reads some of their arguments by position; a rename or a
reordered signature would make `perfbench/run.py --trace 1` fail.
"""

import importlib
import inspect

import pytest

TRACED = {
    "growth_curve": ["x_eval", "h_eval", "g_eval"],
    "quadrature": ["integrate_adaptive"],
    "gm_core": ["transition_law", "r_ratio"],
    "fpt": ["volterra_fpt", "fpt_pdf_gm_closed", "fpt_pdf_lognormal", "fpt_pdf_ou"],
    "fet": ["volterra_fet", "fet_pdf_gm_closed", "fet_pdf_lognormal_band",
            "fet_pdf_ou_band", "fet_pdf_wiener_symmetric"],
    "montecarlo": ["estimate_fpt", "estimate_fet"],
    "cli": ["write_csv"],
    "svg": ["render_line_chart"],
}


@pytest.mark.parametrize("module", sorted(TRACED))
def test_traced_names_exist(module):
    mod = importlib.import_module(f"growthfpt.{module}")
    for name in TRACED[module]:
        assert callable(getattr(mod, name)), name


def test_traced_argument_positions():
    # the hooks read the grid last, the process first and the config last
    from growthfpt import estimate_fet, estimate_fpt, volterra_fet, volterra_fpt
    for fn in (volterra_fpt, volterra_fet):
        assert list(inspect.signature(fn).parameters)[-1] == "grid"
    for fn in (estimate_fpt, estimate_fet):
        params = list(inspect.signature(fn).parameters)
        assert params[0] == "process" and params[-1] == "cfg"
    # the first argument of write_csv is the path it writes
    from growthfpt.cli import write_csv
    assert list(inspect.signature(write_csv).parameters)[0] == "path"
    # the integrand hook replaces the first argument of integrate_adaptive
    from growthfpt.quadrature import integrate_adaptive
    assert list(inspect.signature(integrate_adaptive).parameters)[0] == "f"
