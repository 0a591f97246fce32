import numpy as np
import pytest

from auquat import augmented as aug
from auquat import dualquat as dq
from auquat import quaternion as qt
from auquat.errors import ConstraintViolated
from auquat.tolerances import ALGEBRA_ATOL

RNG = np.random.default_rng(808)
N_SAMPLES = 10_000


def _rand_auq(n=None, rng=RNG):
    return aug.random_auq(rng, n)


def test_mul_identity():
    x = dq.dq(qt.random_unit(3), RNG.standard_normal(4))
    np.testing.assert_array_equal(dq.dq_mul(dq.IDENTITY, x), x)
    np.testing.assert_array_equal(dq.dq_mul(x, dq.IDENTITY), x)


def test_pure_translations_compose_additively():
    t = np.array([1.0, -2.0, 0.5])
    u = np.array([0.25, 1.0, 3.0])
    lhs = dq.dq_mul(dq.from_auq(aug.aq(qt.IDENTITY, t)), dq.from_auq(aug.aq(qt.IDENTITY, u)))
    np.testing.assert_allclose(lhs, dq.from_auq(aug.aq(qt.IDENTITY, t + u)), atol=0)


def test_mul_associative():
    stds = RNG.standard_normal((3, N_SAMPLES, 4))
    duals = RNG.standard_normal((3, N_SAMPLES, 4))
    p, q, s = (dq.dq(stds[i], duals[i]) for i in range(3))
    np.testing.assert_allclose(
        dq.dq_mul(dq.dq_mul(p, q), s), dq.dq_mul(p, dq.dq_mul(q, s)), atol=ALGEBRA_ATOL
    )


def test_conjugate_is_partwise():
    x = dq.dq(RNG.standard_normal(4), RNG.standard_normal(4))
    np.testing.assert_array_equal(
        dq.dq_conj(x), np.concatenate([qt.qconj(x[:4]), qt.qconj(x[4:])])
    )


def test_unit_closure_under_product():
    p = dq.from_auq(_rand_auq(N_SAMPLES))
    q = dq.from_auq(_rand_auq(N_SAMPLES))
    dq.check_unit(dq.dq_mul(p, q))


def test_from_auq_values():
    np.testing.assert_array_equal(dq.from_auq(aug.IDENTITY), dq.IDENTITY)
    got = dq.from_auq([1.0, 0, 0, 0, 2, 0, 0])
    np.testing.assert_array_equal(got, [1.0, 0, 0, 0, 0, 1, 0, 0])


def test_from_auq_satisfies_constraints():
    x = _rand_auq(N_SAMPLES)
    image = dq.from_auq(x)
    np.testing.assert_allclose(qt.qnorm(image[:, :4]), 1.0, atol=ALGEBRA_ATOL)
    np.testing.assert_allclose(dq.orthogonality_defect(image), 0.0, atol=ALGEBRA_ATOL)


def test_homomorphism():
    x = _rand_auq(N_SAMPLES)
    y = _rand_auq(N_SAMPLES)
    np.testing.assert_allclose(
        dq.from_auq(aug.compose(x, y)),
        dq.dq_mul(dq.from_auq(x), dq.from_auq(y)),
        atol=ALGEBRA_ATOL,
    )


def test_roundtrip():
    np.testing.assert_array_equal(dq.to_auq(dq.IDENTITY), aug.IDENTITY)
    x = _rand_auq(N_SAMPLES)
    np.testing.assert_allclose(dq.to_auq(dq.from_auq(x)), x, atol=ALGEBRA_ATOL)


def test_to_auq_rejects_orthogonality_violation():
    bad = dq.from_auq(_rand_auq())
    bad = bad.copy()
    bad[4] += 1e-3  # breaks q qd* + qd q* = 0
    with pytest.raises(ConstraintViolated):
        dq.to_auq(bad)


@pytest.mark.parametrize("slot", [2e-12, 1e-11, 2e-10])
def test_to_auq_refuses_a_translation_scalar_slot_as_an_orthogonality_defect(slot):
    """The scalar slot 2 <qs, qd> of the recovered translation quaternion is
    the orthogonality defect's scalar, so any slot above ALGEBRA_ATOL is
    refused by the defect test."""
    bad = dq.from_auq(_rand_auq(rng=np.random.default_rng(3))).copy()
    bad[4:] += 0.5 * slot * bad[:4]  # adds slot / 2 to <qs, qd>
    assert abs(2.0 * qt.qmul(qt.qconj(bad[:4]), bad[4:])[0]) > ALGEBRA_ATOL
    with pytest.raises(ConstraintViolated, match="orthogonality defect"):
        dq.to_auq(bad)


def test_to_auq_rejects_non_unit_standard_part():
    bad = dq.from_auq(_rand_auq()).copy()
    bad[:4] *= 1.5
    with pytest.raises(ConstraintViolated):
        dq.to_auq(bad)


def test_check_unit_rejects_nan():
    # a NaN standard part fails the norm test, a NaN dual part the orthogonality test
    for bad in ([np.nan] * 8, [1.0, 0.0, 0.0, 0.0, np.nan, 0.0, 0.0, 0.0]):
        with pytest.raises(ConstraintViolated):
            dq.check_unit(bad)
        with pytest.raises(ConstraintViolated):
            dq.to_auq(bad)
