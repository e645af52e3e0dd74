import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from conftest import (aero_engine_continuous, sample_disturbance, scaled_weight_probes,
                      stable_dense_A_c, two_state_bench, uncontrollable_3state)
from lqdr import (MATCHED, MISMATCHED, CostSpec, DisturbanceProfile, FeedforwardSolution,
                  SystemModel, check_detectability, classify_disturbance,
                  discretize_zoh, disturbance_sequence, validate)
from lqdr.model import RANK_REL_TOL, _PADE_THETA, _dot_for, _expm, _split, check_weights


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_system_model_dimensions():
    model = two_state_bench()
    assert (model.n, model.m, model.l) == (2, 1, 1)
    with pytest.raises(ValueError):
        SystemModel(A=[[1.0, 0.0]], B=[[1.0]], E=[[1.0]], c_o=[[1.0]])
    with pytest.raises(ValueError):
        SystemModel(A=np.eye(2), B=[[1.0], [0.0]], E=[[1.0]], c_o=[[1.0, 0.0]])
    with pytest.raises(ValueError):
        SystemModel(A=[[np.nan]], B=[[1.0]], E=[[1.0]], c_o=[[1.0]])


def test_system_model_is_immutable():
    model = two_state_bench()
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.A = np.eye(2)
    with pytest.raises(ValueError):
        model.A[0, 0] = 5.0


def test_cost_spec_shapes():
    model = two_state_bench()
    cost = CostSpec.from_model(model, R=np.eye(2))
    assert np.allclose(cost.Q, model.c_o.T @ model.c_o)
    assert np.all(cost.P_terminal == 0) and np.all(cost.r == 0)
    with pytest.raises(ValueError):
        CostSpec(Q=np.eye(2), R=np.eye(3), P_terminal=np.zeros((2, 2)), r=[0, 0])
    with pytest.raises(ValueError):
        CostSpec(Q=np.eye(2), R=np.eye(2), P_terminal=np.zeros((2, 2)), r=[0, 0, 0])
    # indefinite weights are allowed at construction; validate() flags them
    CostSpec(Q=np.eye(2), R=-np.eye(2), P_terminal=np.zeros((2, 2)), r=[0, 0])


def test_dot_for_gives_the_bytes_of_matmul_signed_zeros_included():
    assert _dot_for(1) is np.matmul
    assert _dot_for(2) is _dot_for(32) is np.ndarray.dot
    # a one-state zero product with a sign: ndarray.dot keeps -0.0, @ gives
    # +0.0, so choosing ndarray.dot at n = 1 would change the bytes
    A, x = np.array([[1.0]]), np.array([-0.0])
    assert _dot_for(1)(A, x).tobytes() == (A @ x).tobytes() == np.array([0.0]).tobytes()
    assert np.ndarray.dot(A, x).tobytes() != (A @ x).tobytes()
    # from two states on, the row sums of ndarray.dot start at +0.0 as @'s do
    A, x = np.eye(2), np.array([-0.0, -0.0])
    assert _dot_for(2)(A, x).tobytes() == (A @ x).tobytes()
    # a per-call product passes its operands' sizes: one of 1 is @'s
    assert _dot_for(2, 1) is _dot_for(1, 6) is np.matmul
    assert _dot_for(2, 6) is np.ndarray.dot
    rng = np.random.default_rng(0)
    values = [-1.0, -0.0, 0.0, 1.0, 0.5]
    for _ in range(500):
        rows, inner, cols = rng.integers(1, 5, 3)
        a = rng.choice(values, (rows, inner))
        for b in (rng.choice(values, (inner, cols)), rng.standard_normal(inner)):
            product = _dot_for(a.size, b.size)(a, b)
            assert product.tobytes() == (a @ b).tobytes()


def test_freeze_fields_makes_float_arrays_read_only_in_place():
    f = np.zeros((2, 1))
    ff = FeedforwardSolution(h=[[1, 2]], f=f)
    assert ff.f is f and ff.h.dtype == np.float64
    assert not (ff.f.flags.writeable or ff.h.flags.writeable)


# ---------------------------------------------------------------------------
# validate / matching
# ---------------------------------------------------------------------------

def test_validate_two_state_bench_is_mismatched():
    model = two_state_bench()
    report = validate(model, CostSpec.from_model(model, R=np.eye(2)))
    assert report.dimension_ok
    assert report.disturbance_class == MISMATCHED
    assert all(report.psd_flags.values())
    assert report.detectable


def test_validate_is_pure():
    model = two_state_bench()
    cost = CostSpec.from_model(model, R=np.eye(2))
    assert validate(model, cost) == validate(model, cost)


def test_matched_when_E_in_span_of_B():
    model = SystemModel(A=np.eye(2), B=[[0.0], [1.0]], E=[[0.0], [2.0]], c_o=[[1.0, 0.0]])
    report = validate(model, CostSpec.from_model(model, R=np.eye(2)))
    assert report.disturbance_class == MATCHED


def test_aero_engine_channels_are_mismatched():
    _, B_c, E_c, _ = aero_engine_continuous()
    assert classify_disturbance(B_c, E_c) == MISMATCHED


def test_matching_invariant_under_column_scaling():
    rng = np.random.default_rng(7)
    for _ in range(10):
        B = rng.standard_normal((4, 2))
        gamma = rng.standard_normal((2, 2))
        matched = B @ gamma
        orthogonal = np.linalg.qr(np.hstack([B, rng.standard_normal((4, 2))]))[0][:, 2:]
        for scale in (1e-6, 1.0, -2.0, 1e6):
            assert classify_disturbance(B, matched * scale) == MATCHED
            assert classify_disturbance(B, orthogonal * scale) == MISMATCHED


def test_validate_flags_indefinite_weights():
    model = two_state_bench()
    cost = CostSpec(Q=[[1.0, 0.0], [0.0, -1.0]], R=np.eye(2),
                    P_terminal=np.zeros((2, 2)), r=[0.0, 0.0])
    report = validate(model, cost)
    assert not report.psd_flags["Q"]
    assert report.psd_flags["R"]
    assert any("Q" in msg for msg in report.messages)


@pytest.mark.parametrize("scale", [2.0 ** -40, 1.0, 2.0 ** 40],
                         ids=["2^-40", "1", "2^40"])
def test_weight_verdicts_do_not_depend_on_scale(scale):
    indefinite, skewed = scaled_weight_probes(scale)
    messages = []
    cost = CostSpec(Q=indefinite, R=skewed, P_terminal=np.zeros((2, 2)), r=[0.0, 0.0])
    assert check_weights(cost, messages) == {"Q": False, "R": True, "P_terminal": True}
    assert len(messages) == 1 and messages[0].startswith("Q has eigenvalue")


def test_validate_flags_dimension_mismatch():
    model = uncontrollable_3state()
    cost = CostSpec(Q=np.eye(2), R=np.eye(2), P_terminal=np.zeros((2, 2)), r=[0.0, 0.0])
    report = validate(model, cost)
    assert not report.dimension_ok


# ---------------------------------------------------------------------------
# detectability
# ---------------------------------------------------------------------------

def test_detectability_diagonal_cases():
    A = np.diag([2.0, 0.5])
    assert check_detectability(A, np.diag([1.0, 0.0]))
    assert not check_detectability(A, np.diag([0.0, 1.0]))


def test_detectability_vacuous_for_stable_plant():
    A = uncontrollable_3state().A
    eigs = np.abs(np.linalg.eigvals(A))
    assert np.max(eigs) < 1.0
    # complex pair has modulus sqrt(det of the 2x2 block) = sqrt(0.9902)
    assert np.isclose(sorted(eigs)[-1], np.sqrt(0.9902))
    rng = np.random.default_rng(3)
    for _ in range(5):
        C = rng.standard_normal((3, 3))
        assert check_detectability(A, C.T @ C)
    assert check_detectability(A, np.zeros((3, 3)))


def test_detectability_sees_every_rotation_as_undetectable_without_weight():
    # |e^(i theta)| = 1 is often computed as 0.9999999999999999, which the
    # exact comparison with 1.0 skipped: 64 of these 400 passed as detectable
    for theta in np.linspace(0.01, 3.1, 400):
        c, s = math.cos(theta), math.sin(theta)
        assert not check_detectability(np.array([[c, -s], [s, c]]), np.zeros((2, 2)))


def test_detectability_is_judged_at_the_weight_s_own_scale():
    # Q^(1/2) = 2^-30 fell below 1e-9 of [A - 1.5 I; Q^(1/2)]'s largest
    # singular value, so the weighted unstable mode counted as unseen
    assert check_detectability(np.diag([1.5, 0.5]), 2.0 ** -60 * np.diag([1.0, 0.0]))


def test_split_bases_are_scipys():
    # the rank rule's bases against scipy.linalg's at rcond = RANK_REL_TOL on
    # zero-rich matrices (entries 0 with probability 1/2, else from a set
    # with -0.0), B and B' shapes: the same rank and the same projector
    # bytes.  20,000 such matrices probed alike agreed to the byte
    values = np.array([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0])
    rng = np.random.default_rng(15)
    for _ in range(2000):
        rows, cols = rng.integers(1, 5, size=2)
        M = np.where(rng.random((rows, cols)) < 0.5, 0.0,
                     rng.choice(values, size=(rows, cols)))
        for X in (M, M.T):
            ours = _split(X)
            theirs = (scipy.linalg.orth(X, rcond=RANK_REL_TOL),
                      scipy.linalg.null_space(X, rcond=RANK_REL_TOL))
            for basis, reference in zip(ours, theirs, strict=True):
                assert basis.shape == reference.shape
                assert (basis @ basis.T).tobytes() == (reference @ reference.T).tobytes()


def test_detectability_rejects_non_square():
    with pytest.raises(ValueError):
        check_detectability(np.ones((2, 3)), np.eye(2))


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def test_zoh_zero_dynamics():
    B_c = np.array([[1.0], [2.0]])
    model = discretize_zoh(np.zeros((2, 2)), B_c, 0.5 * B_c, Ts=0.02)
    assert np.allclose(model.A, np.eye(2))
    assert np.allclose(model.B, 0.02 * B_c)
    assert np.allclose(model.E, 0.01 * B_c)
    assert model.c_o.shape == (2, 2)  # identity selector by default


def test_zoh_scalar_closed_form():
    a, b, Ts = -1.3, 0.7, 0.05
    model = discretize_zoh([[a]], [[b]], [[b]], Ts)
    assert np.isclose(model.A[0, 0], np.exp(a * Ts), atol=1e-14)
    assert np.isclose(model.B[0, 0], b * (np.exp(a * Ts) - 1.0) / a, atol=1e-14)


def test_zoh_matches_series_expansion_oracle():
    A_c, B_c, E_c, c_o = aero_engine_continuous()
    Ts = 0.02
    # independent truncated-series oracle: exp(A Ts) and int_0^Ts exp(A s) ds
    n = 2
    A_d = np.zeros((n, n))
    S = np.zeros((n, n))
    term = np.eye(n)
    for j in range(21):
        A_d += term * Ts ** j / math.factorial(j)
        S += term * Ts ** (j + 1) / math.factorial(j + 1)
        term = term @ A_c
    model = discretize_zoh(A_c, B_c, E_c, Ts, c_o=c_o)
    assert np.max(np.abs(model.A - A_d)) <= 1e-12
    assert np.max(np.abs(model.B - S @ B_c)) <= 1e-12
    assert np.max(np.abs(model.E - S @ E_c)) <= 1e-12


def test_zoh_preserves_stability():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        G = rng.standard_normal((n, n))
        shift = np.max(np.real(np.linalg.eigvals(G))) + rng.uniform(0.2, 2.0)
        A_c = G - shift * np.eye(n)
        model = discretize_zoh(A_c, rng.standard_normal((n, 1)),
                               rng.standard_normal((n, 1)), Ts=rng.uniform(0.01, 1.0))
        assert np.max(np.abs(np.linalg.eigvals(model.A))) < 1.0


def test_zoh_rejects_bad_sample_time():
    with pytest.raises(ValueError):
        discretize_zoh(np.eye(1), np.eye(1), np.eye(1), Ts=0.0)
    with pytest.raises(ValueError):
        discretize_zoh(np.eye(1), np.eye(1), np.eye(1), Ts=-0.1)


@pytest.mark.parametrize("A_c, Ts, match", [
    ([[1000.0, 0.0], [0.0, -1.0]], 1.0, "overflows"),
    ([[1e200, 0.0], [0.0, -1.0]], 1e200, "not finite"),
    ([[1e308, 0.0], [1e308, -1.0]], 1.0, "1-norm"),
    ([[-1.0, 0.0], [0.0, -1.0]], math.inf, "not finite"),
    ([[-1.0, 0.0], [0.0, -1.0]], math.nan, "not finite"),
], ids=["exp_overflows", "A_Ts_overflows", "norm_overflows", "Ts_inf", "Ts_nan"])
def test_zoh_refuses_a_non_finite_exponential(A_c, Ts, match):
    # one ValueError and no floating-point warning (the suite makes a
    # RuntimeWarning an error)
    B_c = [[0.0], [1.0]]
    with pytest.raises(ValueError, match=match):
        discretize_zoh(A_c, B_c, B_c, Ts)


def zoh_block(n, seed):
    """The Van Loan block [[A_c, I], [0, 0]] of a stable dense plant."""
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = stable_dense_A_c(n, np.random.default_rng(seed))
    block[:n, n:] = np.eye(n)
    return block


# 1-norms just under each Padé degree's theta (no squaring), then two that
# are squared 2 and 8 times.  Worst max|X - expm| / max|expm| measured over
# 200 seeds and n = 1, 2, 4: 4.4e-16 on each degree 3..9, 1.3e-14 at
# theta_13 and 2.8e-14 at norm 1000; there a 40-digit series (mpmath) puts
# numpy's result within 7.1e-15 and scipy's within 8.8e-15 (40 seeds).
@pytest.mark.parametrize("norm, bound", [(theta * (1 - 1e-9), 1e-15 if m < 13 else 1e-13)
                                         for m, theta in _PADE_THETA]
                         + [(20.0, 1e-13), (1000.0, 1e-13)],
                         ids=[f"pade{m}" for m, _ in _PADE_THETA] + ["squared2", "squared8"])
def test_expm_matches_scipy_on_each_branch(norm, bound):
    for seed in range(20):
        for n in (1, 2, 4):
            block = zoh_block(n, seed)
            X = block * (norm / np.linalg.norm(block, 1))
            want = scipy.linalg.expm(X)
            assert np.max(np.abs(_expm(X) - want)) <= bound * np.max(np.abs(want))


def test_expm_of_zero_is_the_identity():
    assert _expm(np.zeros((3, 3))).tobytes() == np.eye(3).tobytes()


@pytest.mark.parametrize("scale", [1e-3, 0.1, 1.0])
def test_expm_of_a_diagonal_matrix(scale):
    # up to 8 squarings at scale 1: measured 3.5e-14 on exp(-30)
    d = scale * np.array([-30.0, -3.0, -0.01, 0.0, 0.5, 2.0, 10.0])
    got = _expm(np.diag(d))
    assert np.all(got[~np.eye(d.size, dtype=bool)] == 0.0)
    assert np.max(np.abs(np.diag(got) / np.exp(d) - 1.0)) <= 1e-13


@pytest.mark.parametrize("t", [1e-3, 0.3, 1.0, 3.0, 10.0])
def test_expm_of_a_nilpotent_jordan_block_is_its_finite_series(t):
    n = 5
    N = t * np.eye(n, k=1)
    want = np.eye(n)
    for k in range(1, n):
        want += np.linalg.matrix_power(N, k) / math.factorial(k)
    got = _expm(N)
    assert np.all(np.tril(got, -1) == 0.0)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(want)  # measured 5.9e-16


@pytest.mark.parametrize("t", [1e-3, 0.3, 1.0, 3.0, 10.0])
def test_expm_of_the_rotation_generator(t):
    want = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    assert np.max(np.abs(_expm(np.array([[0.0, -t], [t, 0.0]])) - want)) <= 1e-15


# ---------------------------------------------------------------------------
# disturbance profiles
# ---------------------------------------------------------------------------

def test_constant_profile_onset():
    profile = DisturbanceProfile.constant(3.0, start_step=500)
    assert sample_disturbance(profile, 499) == pytest.approx(0.0)
    assert sample_disturbance(profile, 500) == pytest.approx(3.0)
    assert sample_disturbance(profile, 10_000) == pytest.approx(3.0)


def test_sinusoid_profile_starts_at_zero():
    profile = DisturbanceProfile.sinusoid(1.0, rate=0.02, start_step=500)
    assert sample_disturbance(profile, 500) == pytest.approx(0.0)
    assert sample_disturbance(profile, 400) == pytest.approx(0.0)
    k = 540
    assert sample_disturbance(profile, k) == pytest.approx(np.sin((k - 500) / 50.0))


def test_ramp_profile_rises_then_holds():
    # nozzle-area ramp: 0.1273 per second sampled at 20 ms, capped at the
    # total area change 0.063649
    profile = DisturbanceProfile.ramp(rate=0.002546, limit=0.063649)
    assert sample_disturbance(profile, 10) == pytest.approx(0.02546)
    assert sample_disturbance(profile, 25) == pytest.approx(0.063649)
    assert sample_disturbance(profile, 40) == pytest.approx(0.063649)


def test_table_profile_holds_last_value():
    profile = DisturbanceProfile.table([[1.0], [2.0], [3.0]], start_step=2)
    assert sample_disturbance(profile, 1) == pytest.approx(0.0)
    assert sample_disturbance(profile, 2) == pytest.approx(1.0)
    assert sample_disturbance(profile, 4) == pytest.approx(3.0)
    assert sample_disturbance(profile, 99) == pytest.approx(3.0)


def test_sample_rejects_negative_step():
    with pytest.raises(ValueError):
        sample_disturbance(DisturbanceProfile.constant(1.0), -1)


def test_limit_values():
    assert DisturbanceProfile.constant(3.0).limit_value() == pytest.approx(3.0)
    assert DisturbanceProfile.ramp(0.1, 2.5).limit_value() == pytest.approx(2.5)
    assert DisturbanceProfile.table([[1.0], [7.0]]).limit_value() == pytest.approx(7.0)
    assert DisturbanceProfile.sinusoid(0.0, 1.0).limit_value() == pytest.approx(0.0)
    with pytest.raises(ValueError):
        DisturbanceProfile.sinusoid(1.0, 1.0).limit_value()


def test_disturbance_sequence_matches_samples():
    profile = DisturbanceProfile.sinusoid(2.0, rate=0.3, start_step=4, dim=2)
    seq = disturbance_sequence(profile, 12)
    assert seq.shape == (12, 2)
    for k in range(12):
        assert np.allclose(seq[k], sample_disturbance(profile, k))
    raw = disturbance_sequence(np.arange(6.0), 5)
    assert raw.shape == (5, 1)
    with pytest.raises(ValueError):
        disturbance_sequence(np.zeros((3, 1)), 5)
    with pytest.raises(ValueError):
        disturbance_sequence(profile, 4, dim=3)


@pytest.mark.parametrize("profile", [
    DisturbanceProfile.constant(3.0, start_step=5),
    DisturbanceProfile.constant(-1.5, start_step=0, dim=3),
    DisturbanceProfile.sinusoid(2.0, rate=0.3, start_step=4, dim=2),
    DisturbanceProfile.ramp(0.1, 2.5, start_step=3),
    DisturbanceProfile.ramp(0.1, 100.0, start_step=3, dim=2),
    DisturbanceProfile.ramp(-0.07, -0.5, start_step=2, dim=2),
    DisturbanceProfile.ramp(-0.1, 0.0),
    DisturbanceProfile.table([[1.0, -2.0], [3.0, 0.5], [-4.0, 6.0]], start_step=2),
    DisturbanceProfile.table(np.linspace(0.0, 1.0, 60), start_step=1),
    DisturbanceProfile.constant(1.0, start_step=40, dim=2),
], ids=["constant", "constant_dim3", "sinusoid_dim2", "ramp_saturating",
        "ramp_unsaturated_dim2", "ramp_negative_dim2", "ramp_negative_to_zero",
        "table_shorter_than_horizon", "table_longer_than_horizon", "onset_after_horizon"])
def test_disturbance_sequence_is_bit_identical_to_samples(profile):
    # the array computation must round exactly as the per-sample definition,
    # signed zeros included, so compare the bytes
    for steps in (1, 7, 40):
        seq = disturbance_sequence(profile, steps)
        expected = np.stack([sample_disturbance(profile, k) for k in range(steps)])
        assert seq.shape == expected.shape
        assert seq.tobytes() == expected.tobytes()
