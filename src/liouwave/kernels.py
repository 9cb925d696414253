"""The numpy kernel of the stepper's per-mode update.

`gautschi_combine` is the per-mode trigonometric update of the stepper;
`propagator.Stepper` (so `evolve`, `duhamel_step` and the Picard map) and
`linear_flow` run through it on the stacked half spectra of all
components at once.  The free-flow part cos*uh + sinc*vh of the position
can be left by one call and read by the next (`free_out`, `free`), so the
symmetric step's predictor and final position share it.  Call sites look it up as a
module attribute at call time (``kernels.gautschi_combine``), never bind it
at import or in a `Stepper`, so a wrapper installed on the module is seen
everywhere.  `backend` names the implementation, for provenance records.
"""

import numpy as np

backend = "python"


def gautschi_combine(cosw, sincw, qw, wsinw, uh, vh, fh, uh_out, vh_out=None, tmp=None,
                     free_out=None, free=None):
    """Per-mode update of the second-order oscillator with frozen forcing:

        uh_out = (cos*uh + sinc*vh) + q*fh
        vh_out = cos*vh - wsin*uh + sinc*fh

    The (n1, n2//2+1) factors broadcast over stacked (ncomp, n1, n2//2+1)
    spectra, so one call updates every component.  With `vh_out=None` the
    velocity line is skipped (the symmetric step's predictor needs only the
    position).  The bracket is the free flow of the position: `free_out`
    receives it, and `free`, an array holding it for the same (uh, vh) (it
    may be `uh_out` itself), saves recomputing it; the sum with q*fh is the
    same either way.  Output buffers must not alias the inputs.  The sums
    run left to right in the output buffers with one scratch array (`tmp`,
    allocated when not given), which gives the same bits as the expressions
    above without their temporaries.
    """
    if tmp is None:
        tmp = np.empty_like(uh_out)
    if free is None:
        free = uh_out if free_out is None else free_out
        np.multiply(cosw, uh, out=free)
        free += np.multiply(sincw, vh, out=tmp)
    np.add(free, np.multiply(qw, fh, out=tmp), out=uh_out)
    if vh_out is not None:
        np.multiply(cosw, vh, out=vh_out)
        vh_out -= np.multiply(wsinw, uh, out=tmp)
        vh_out += np.multiply(sincw, fh, out=tmp)
