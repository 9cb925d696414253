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


def gautschi_combine(cosw, sincw, qw, wsinw, uh, vh, fh, uh_out, vh_out=None):
    """Per-mode update of the second-order oscillator with frozen forcing:

        uh_out = cos*uh + sinc*vh + q*fh
        vh_out = cos*vh - wsin*uh + sinc*fh

    With `vh_out=None` the velocity line is skipped (the symmetric step's
    predictor needs only the position).  Output buffers must not alias the
    inputs.  The sums run left to right in the output buffers with one
    scratch array, which gives the same bits as the expressions above
    without their temporaries.
    """
    tmp = np.empty_like(uh_out)
    np.multiply(cosw, uh, out=uh_out)
    uh_out += np.multiply(sincw, vh, out=tmp)
    uh_out += np.multiply(qw, fh, out=tmp)
    if vh_out is not None:
        np.multiply(cosw, vh, out=vh_out)
        vh_out -= np.multiply(wsinw, uh, out=tmp)
        vh_out += np.multiply(sincw, fh, out=tmp)
