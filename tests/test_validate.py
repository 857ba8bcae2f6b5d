import math

import numpy as np
import pytest

import dgtwolevel.closed_forms
import dgtwolevel.validate
from dgtwolevel import run_validation
from dgtwolevel.assembly import assemble_operator
from dgtwolevel.closed_forms import ASYMPTOTIC_CK, eigenvalue_pair
from dgtwolevel.config import CELL, PERIODIC, POINT, ProblemConfig
from dgtwolevel.fourier import (
    symbols_at_angle,
    symbols_at_ck,
    two_grid_eigenvalues,
    verify_block_diagonalization,
)
from dgtwolevel.rd_coefficients import cell_coefficients, point_coefficients
from dgtwolevel.twolevel import build_iteration_matrix, two_level_components


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
            "poisson_degeneration"} <= names


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
        pairs.append((kind, x, delta0, gamma, alpha))
        return eigenvalue_pair(x, delta0, gamma, alpha, kind)

    monkeypatch.setattr(dgtwolevel.validate, "symbols_at_ck", record_blocks)
    monkeypatch.setattr(dgtwolevel.validate, "eigenvalue_pair", record_pair)
    checks = run_validation(cells=16)
    samples = np.array(reference_appendix_samples())
    # one stacked block call and one stacked pair call per smoother, whose
    # columns are the samples; the next pair call is another check's
    assert [kind for kind, _ in blocks] == [POINT, CELL]
    for _, drawn in blocks:
        assert np.array_equal(drawn, samples)
    assert [kind for kind, *_ in pairs[:2]] == [POINT, CELL]
    for _, x, delta0, gamma, alpha in pairs[:2]:
        assert np.array_equal(np.column_stack([delta0, gamma, alpha, x]), samples)
    assert pairs[2][1] is ASYMPTOTIC_CK

    # one scalar pair per sample, against the same stacked blocks, gives
    # the same worst gap, bit for bit
    delta0s, gammas, alphas, xs = samples.T
    worst = 0.0
    for kind in (POINT, CELL):
        blocks = symbols_at_ck(delta0s, gammas, kind, alphas, xs).Ehat
        spectra = np.sort(np.linalg.eigvals(blocks).real, axis=-1)
        for ev, (delta0, gamma, alpha, x) in zip(spectra, samples.tolist()):
            hi, lo = eigenvalue_pair(x, delta0, gamma, alpha, kind)
            ref = np.sort([0.0, 0.0, float(hi), float(lo)])
            worst = max(worst, np.abs(ev - ref).max() / max(1.0, np.abs(ref).max()))
    observed = by_name(checks, "appendix_vs_blocks").observed
    assert 0.0 < observed == worst < 1e-13
    # single blocks, one call per sample, agree with the stack to rounding
    for delta0, gamma, alpha, x in samples.tolist():
        for kind in (POINT, CELL):
            hi, lo = eigenvalue_pair(x, delta0, gamma, alpha, kind)
            ev = np.sort(np.linalg.eigvals(symbols_at_ck(delta0, gamma, kind, alpha, x).Ehat).real)
            ref = np.sort([0.0, 0.0, float(hi), float(lo)])
            assert np.abs(ev - ref).max() / max(1.0, np.abs(ref).max()) < 1e-13


@pytest.mark.parametrize("kind", [POINT, CELL])
def test_scalar_symbols_are_their_stacked_rows_bit_for_bit(kind):
    # a lone coarse block A0hat is inverted as a stack of one, so a scalar
    # call gives every field of its row of validate's stacked call
    samples = np.array(reference_appendix_samples())
    delta0s, gammas, alphas, xs = samples.T
    stacked = symbols_at_ck(delta0s, gammas, kind, alphas, xs)
    for i, (delta0, gamma, alpha, x) in enumerate(samples.tolist()):
        scalar = symbols_at_ck(delta0, gamma, kind, alpha, x)
        for name in ("Ahat", "Dhat", "Rhat", "Phat", "A0hat", "Ehat"):
            assert np.array_equal(getattr(scalar, name), getattr(stacked, name)[i]), (i, name)


def test_block_diagonalization_equals_one_call_per_circulant(monkeypatch):
    # the per-circulant route: one call per random circulant, drawn block
    # by block, and one for the operator's first block row
    rng = np.random.default_rng(2024)
    circulants = [[rng.uniform(-1.0, 1.0, size=(2, 2)) for _ in range(8)] for _ in range(20)]
    worst = worst_unitary = 0.0
    for blocks in circulants:
        off, unit = verify_block_diagonalization(blocks, 8)
        worst, worst_unitary = max(worst, off), max(worst_unitary, unit)
    A = assemble_operator(ProblemConfig(8, 2.0, math.inf, PERIODIC)).toarray()
    row = [A[0:2, 2 * j : 2 * j + 2] for j in range(8)]
    off, unit = verify_block_diagonalization(row, 8)
    worst = max(worst, off / max(1.0, np.abs(A).max()))

    calls = []

    def record(blocks, cells):
        calls.append(np.array(blocks))
        return verify_block_diagonalization(blocks, cells)

    monkeypatch.setattr(dgtwolevel.validate, "verify_block_diagonalization", record)
    checks = run_validation(cells=16)
    # one stacked call for the circulants, one for the operator
    assert len(calls) == 2
    assert np.array_equal(calls[0], np.array(circulants))
    assert np.array_equal(calls[1], np.array(row))
    assert by_name(checks, "block_diagonalization").observed == worst
    assert by_name(checks, "basis_unitarity").observed == max(worst_unitary, unit)


#: block_vs_dense_spectrum's designs per smoother: (delta0, gamma, alpha)
DENSE_DESIGNS = {
    CELL: [(2.0, math.inf, 0.7), (1.2, 1 / 16, 1.0)],
    POINT: [(2.0, 1.0, 1.0), (4.0, math.inf, 0.7)],
}


def test_stacked_frequency_blocks_equal_one_call_per_design(monkeypatch):
    calls = []

    def record(*args, **kwargs):
        sym = symbols_at_angle(*args, **kwargs)
        calls.append((args[3], sym.Ehat))
        return sym

    monkeypatch.setattr(dgtwolevel.validate, "symbols_at_angle", record)
    checks = run_validation(cells=16)
    # one call per smoother over both its designs; each design's blocks
    # have the eigenvalues of two_grid_eigenvalues, bit for bit
    assert [kind for kind, _ in calls] == [CELL, POINT]
    worst = 0.0
    for kind, blocks in calls:
        assert blocks.shape == (2, 8, 4, 4)
        for (delta0, gamma, alpha), ev in zip(DENSE_DESIGNS[kind], np.linalg.eigvals(blocks)):
            cfg = ProblemConfig(16, delta0, gamma, PERIODIC)
            blockwise = two_grid_eigenvalues(cfg, kind, alpha)
            assert np.array_equal(ev.reshape(-1), blockwise)
            dense = np.linalg.eigvals(build_iteration_matrix(two_level_components(cfg, kind, alpha)))
            gap = np.abs(np.sort(dense.real) - np.sort(blockwise.real)).max()
            worst = max(worst, gap, np.abs(dense.imag).max(), np.abs(blockwise.imag).max())
    assert by_name(checks, "block_vs_dense_spectrum").observed == worst


def test_poisson_degeneration_equals_two_calls_per_smoother():
    # the stacked (1e10 | inf) gamma column against one call per gamma
    worst = 0.0
    penalties = np.array([[1.2], [2.0], [5.0]])
    for kind in (POINT, CELL):
        hi_rd, lo_rd = eigenvalue_pair(ASYMPTOTIC_CK, penalties, 1e10, 1.0, kind)
        hi_p, lo_p = eigenvalue_pair(ASYMPTOTIC_CK, penalties, math.inf, 1.0, kind)
        worst = max(worst, np.abs(hi_rd - hi_p).max(), np.abs(lo_rd - lo_p).max())
    assert by_name(run_validation(cells=16), "poisson_degeneration").observed == worst
