"""The exact engine's own special functions, against scipy.special.

``analytic._log_factorial`` and ``analytic._vote_tail`` replace
``gammaln`` and ``betainc`` on the library's path, so that importing
``treebsm`` does not import scipy; scipy stays a test dependency, the
independent reference these kernels are checked against here.
"""

import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from treebsm import analytic
from treebsm.analytic import MAX_CHAINS, _log_factorial, _vote_tail

SRC = Path(__file__).resolve().parents[1] / "src"

TAIL_COUNTS = [*range(1, 10), 120, 2001, 49159]
TAIL_ERRORS = [1e-3, 0.01, 0.3, 0.45, 0.49, 0.4999, 0.5, 0.7, 1.0]


def betainc_tail(m, e):
    """P(Binom(m', e) > m'/2), m' = m rounded down to odd, by the incomplete beta function."""
    m_odd = m - 1 + m % 2
    k0 = (m_odd + 1) // 2
    return special.betainc(k0, m_odd - k0 + 1, e)


def test_log_factorial_matches_gammaln_to_4_ulp():
    k = np.arange(MAX_CHAINS + 2)
    got, want = _log_factorial(k), special.gammaln(k + 1.0)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))


def test_log_factorial_table_is_the_kernel():
    k = np.arange(-analytic._BLOCK, analytic._BLOCK)
    assert np.array_equal(analytic._LOG_FACTORIALS[k], _log_factorial(k))
    assert np.all(np.isinf(_log_factorial(np.arange(-3, 0))))


@pytest.mark.parametrize("m", TAIL_COUNTS)
def test_vote_tail_matches_betainc(m):
    want = betainc_tail(m, np.array(TAIL_ERRORS))
    assert _vote_tail(m, np.array(TAIL_ERRORS)) == pytest.approx(want, rel=1e-12, abs=0.0)
    for e, w in zip(TAIL_ERRORS, want):
        assert _vote_tail(m, e) == pytest.approx(w, rel=1e-12, abs=0.0), e


def test_vote_tail_of_a_batch_matches_betainc():
    m, e = (a.ravel() for a in np.meshgrid(TAIL_COUNTS, TAIL_ERRORS))
    assert _vote_tail(m, e) == pytest.approx(betainc_tail(m, e), rel=1e-12, abs=0.0)


def test_vote_tail_at_no_error_is_zero_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in TAIL_COUNTS:
            assert _vote_tail(m, 0.0) == 0.0
            assert _vote_tail(m, 1.0) == 1.0
        assert np.all(_vote_tail(np.array(TAIL_COUNTS), 0.0) == 0.0)
        assert np.array_equal(_vote_tail(5, np.array([0.0, 0.5, 1.0])), [0.0, 0.5, 1.0])


def test_no_scipy_on_the_runtime_path(tmp_path):
    # A fresh interpreter runs the vote mix, with a row wide enough for the
    # chunked path, and a search through the CLI; scipy must never load.
    script = textwrap.dedent(f"""
        import sys
        import treebsm
        from treebsm import analytic, cli
        rates = analytic.logical_bsm_batch(
            [(analytic._BLOCK + 7, 2), (3, 2)], 0.9, 1e-3, analytic.Protocol.STATIC)
        assert 0.0 < rates.err_complete[0] < 0.75
        assert cli.main(["search", "--protocol", "dynamic", "--eta", "0.95", "--eps", "1e-5",
                         "--max-depth", "2", "--max-n", "40",
                         "--output", {str(tmp_path / "front.csv")!r}]) == 0
        assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
    """)
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
