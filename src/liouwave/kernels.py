"""Numpy kernels of the hot elementwise loops.

`gautschi_combine` is the per-mode trigonometric update of the stepper; the
step, `linear_flow` and the Picard map all run through it on half spectra.
`exp_shifted_sum` is the shifted exponential behind every log-sum-exp
integral.  Call sites go through the module attributes
(``kernels.gautschi_combine``), so a wrapper installed on the module is seen
everywhere.
"""

import numpy as np

backend = "python"


def exp_shifted_sum(g, m, out):
    """out[i,j] = exp(g[i,j] - m); returns the sum of out."""
    np.subtract(g, m, out=out)
    np.exp(out, out=out)
    return float(out.sum())


def gautschi_combine(cosw, sincw, qw, wsinw, uh, vh, fh, uh_out, vh_out):
    """Per-mode update of the second-order oscillator with frozen forcing:

        uh_out = cos*uh + sinc*vh + q*fh
        vh_out = cos*vh - wsin*uh + sinc*fh

    Output buffers must not alias the inputs.
    """
    uh_out[...] = cosw * uh + sincw * vh + qw * fh
    vh_out[...] = cosw * vh - wsinw * uh + sincw * fh
