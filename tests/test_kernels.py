import numpy as np
import pytest

from liouwave import kernels


def combine_inputs(rng, shape=(32, 17)):
    coef = [np.ascontiguousarray(rng.standard_normal(shape)) for _ in range(4)]
    modes = [
        np.ascontiguousarray(
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )
        for _ in range(3)
    ]
    return coef, modes


def test_exp_shifted_sum_matches_direct(rng):
    g = np.ascontiguousarray(2.0 * rng.standard_normal((32, 32)))
    out = np.empty_like(g)
    s = kernels.exp_shifted_sum(g, 1.3, out)
    direct = np.exp(g - 1.3)
    assert np.allclose(out, direct, rtol=1e-15, atol=0)
    assert s == pytest.approx(direct.sum(), rel=1e-14)


def test_python_combine_matches_formula(rng):
    (c, s, q, w), (uh, vh, fh) = combine_inputs(rng)
    uo = np.empty_like(uh)
    vo = np.empty_like(uh)
    kernels.gautschi_combine(c, s, q, w, uh, vh, fh, uo, vo)
    assert np.array_equal(uo, c * uh + s * vh + q * fh)
    assert np.array_equal(vo, c * vh - w * uh + s * fh)


def test_combine_without_velocity_gives_same_position(rng):
    (c, s, q, w), (uh, vh, fh) = combine_inputs(rng)
    uo = np.empty_like(uh)
    vo = np.empty_like(uh)
    kernels.gautschi_combine(c, s, q, w, uh, vh, fh, uo, vo)
    up = np.empty_like(uh)
    kernels.gautschi_combine(c, s, q, w, uh, vh, fh, up)
    assert np.array_equal(up, uo)
