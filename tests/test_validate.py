import math

import numpy as np
import pytest

import dgtwolevel.closed_forms
import dgtwolevel.validate
from dgtwolevel import run_validation
from dgtwolevel.closed_forms import eigenvalue_pair
from dgtwolevel.config import CELL, POINT
from dgtwolevel.fourier import symbols_at_ck
from dgtwolevel.rd_coefficients import cell_coefficients, point_coefficients


#: The checks that evaluate closed-form pairs, and so read the tables:
#: pure diffusion is the same tables at tau = 0.
TABLE_CHECKS = {
    "appendix_vs_blocks", "equioscillation", "poisson_degeneration", "quarter_frequency_touch",
}


def by_name(checks, name):
    return next(c for c in checks if c.name == name)


def shift_table(monkeypatch, table, index, amount):
    """Shift entry ``index`` (1-based) of a coefficient table by ``amount``
    relative, where the closed forms read it."""
    original = {"point_coefficients": point_coefficients, "cell_coefficients": cell_coefficients}[table]

    def shifted(delta0, gamma):
        coeffs = list(original(delta0, gamma))
        coeffs[index - 1] += amount * np.maximum(1.0, np.abs(coeffs[index - 1]))
        return tuple(coeffs)

    monkeypatch.setattr(dgtwolevel.closed_forms, table, shifted)


def test_suite_passes_clean():
    checks = run_validation(cells=16)
    assert all(c.passed for c in checks), [c.line() for c in checks if not c.passed]
    names = {c.name for c in checks}
    assert {"block_diagonalization", "appendix_vs_blocks", "equioscillation",
            "branch_continuity", "poisson_degeneration"} <= names


def test_perturbed_coefficient_is_caught(monkeypatch):
    # mutation test: shifting one reaction-diffusion table entry must trip
    # the table-vs-blocks comparison and nothing else
    shift_table(monkeypatch, "point_coefficients", 3, 1e-3)
    checks = run_validation(cells=16)
    bad = by_name(checks, "appendix_vs_blocks")
    assert not bad.passed
    assert bad.observed > 1e-8
    assert by_name(checks, "block_diagonalization").passed


@pytest.mark.parametrize(
    "table, index, amount, infinite",
    [
        pytest.param("point_coefficients", 2, 1e-3, set(), id="point-numerator"),
        pytest.param(
            "point_coefficients", 5, -1e-3,
            {"equioscillation", "poisson_degeneration", "quarter_frequency_touch"},
            id="point-radicand",
        ),
        pytest.param("point_coefficients", 10, 1e-3, set(), id="point-denominator"),
        pytest.param("cell_coefficients", 2, -1e-3, set(), id="cell-numerator"),
        pytest.param(
            "cell_coefficients", 5, -1e-3, {"equioscillation", "poisson_degeneration"},
            id="cell-radicand",
        ),
        pytest.param("cell_coefficients", 9, -1e-3, set(), id="cell-denominator"),
    ],
)
def test_table_slip_is_a_fail_line(monkeypatch, table, index, amount, infinite):
    # a radicand driven below zero is an out-of-range closed form: the
    # check fails with observed inf instead of aborting the suite
    shift_table(monkeypatch, table, index, amount)
    checks = run_validation(cells=16)
    failed = {c.name for c in checks if not c.passed}
    assert "appendix_vs_blocks" in failed
    assert failed <= TABLE_CHECKS
    assert {c.name for c in checks if math.isinf(c.observed)} == infinite
    for name in infinite:
        check = by_name(checks, name)
        assert check.line().startswith(f"FAIL {check.module}.{name}: observed inf,")


def test_check_line_format():
    checks = run_validation(cells=16)
    line = checks[0].line()
    assert line.startswith("PASS ") and "observed" in line and "expected" in line


def reference_appendix_samples():
    """The 50 ``appendix_vs_blocks`` samples drawn one by one, after the
    block-circulant draws that precede them on the same generator."""
    rng = np.random.default_rng(2024)
    for _ in range(20):
        [rng.uniform(-1.0, 1.0, size=(2, 2)) for _ in range(8)]
    samples = []
    for _ in range(50):
        delta0 = rng.uniform(1.0, 10.0)
        gamma = math.exp(rng.uniform(math.log(1 / 32), math.log(32)))
        alpha = rng.uniform(0.3, 2.0)
        x = rng.uniform(-1.0, 1.0)
        samples.append((delta0, gamma, alpha, x))
    return samples


def test_appendix_samples_equal_reference_draws(monkeypatch):
    blocks, pairs = [], []

    def record_blocks(delta0, gamma, kind, alpha, ck):
        blocks.append((kind, np.column_stack([delta0, gamma, alpha, ck])))
        return symbols_at_ck(delta0, gamma, kind, alpha, ck)

    def record_pair(x, delta0, gamma, alpha, kind):
        pairs.append((kind, (delta0, gamma, alpha, x)))
        return eigenvalue_pair(x, delta0, gamma, alpha, kind)

    monkeypatch.setattr(dgtwolevel.validate, "symbols_at_ck", record_blocks)
    monkeypatch.setattr(dgtwolevel.validate, "eigenvalue_pair", record_pair)
    checks = run_validation(cells=16)
    samples = reference_appendix_samples()
    # one stacked block call per smoother, one pair per sample
    assert [kind for kind, _ in blocks] == [POINT, CELL]
    for _, drawn in blocks:
        assert np.array_equal(drawn, np.array(samples))
    assert pairs[:100] == [(kind, s) for kind in (POINT, CELL) for s in samples]

    # the per-sample loop over single blocks gives the same worst gap
    worst = 0.0
    for delta0, gamma, alpha, x in samples:
        for kind in (POINT, CELL):
            hi, lo = eigenvalue_pair(x, delta0, gamma, alpha, kind)
            ev = np.sort(np.linalg.eigvals(symbols_at_ck(delta0, gamma, kind, alpha, x).Ehat).real)
            ref = np.sort([0.0, 0.0, float(hi), float(lo)])
            worst = max(worst, np.abs(ev - ref).max() / max(1.0, np.abs(ref).max()))
    observed = by_name(checks, "appendix_vs_blocks").observed
    assert worst < 1e-13 and observed < 1e-13
