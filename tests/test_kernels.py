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


def test_shifted_exp_matches_direct(grid32, rng):
    g = np.ascontiguousarray(2.0 * rng.standard_normal((32, 32)))
    out = np.empty_like(g)
    _, m, s = grid32.shifted_exp(g, out=out)
    assert m == g.max()
    direct = np.exp(g - m)
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


def test_shared_free_flow_gives_the_same_bits(rng):
    # the symmetric step's predictor leaves cos*uh + sinc*vh in the new
    # position's buffer, and the final combine adds to it
    (c, s, q, w), (uh, vh, fh) = combine_inputs(rng)
    f2 = np.ascontiguousarray(fh[::-1])
    pred, uo, vo = (np.empty_like(uh) for _ in range(3))
    kernels.gautschi_combine(c, s, q, w, uh, vh, fh, pred, free_out=uo)
    assert np.array_equal(uo, c * uh + s * vh)
    assert np.array_equal(pred, c * uh + s * vh + q * fh)
    kernels.gautschi_combine(c, s, q, w, uh, vh, f2, uo, vo, tmp=pred, free=uo)
    assert np.array_equal(uo, c * uh + s * vh + q * f2)
    assert np.array_equal(vo, c * vh - w * uh + s * f2)


def test_shifted_exp_negative_sign(grid32, rng):
    # the shifted exponent (-m) - g has the bits of (-g) - m
    g = np.ascontiguousarray(2.0 * rng.standard_normal((32, 32)))
    out = np.empty_like(g)
    _, m, s = grid32.shifted_exp(g, -1.0, out=out)
    assert m == -g.min()
    assert np.array_equal(out, np.exp(-g - m))
    assert s == pytest.approx(out.sum(), rel=1e-15)
