"""Discrete flat 2-torus: spectral transforms, Laplacian symbol, quadrature, norms.

The torus is the rectangle [0, L1) x [0, L2) with opposite edges identified.
Fields are plain (n1, n2) float arrays sampled at x = (i1*L1/n1, i2*L2/n2),
row-major.  All calculus here is either spectral or equal-weight trapezoidal,
both exact for band-limited data on this geometry, and every integral of an
exponential goes through a log-sum-exp path so that fields with values up to
~700 in magnitude never overflow.

The stepping and sampling path uses the half (rfft) spectra of stacked
components, each stack in one batched numpy.fft pass per axis.  Every
integral of an exponential takes one exponential pass, `shifted_exp` (one
max, which is also the finiteness check, one exp, one sum, into a buffer
the caller may hold): `normalized_exp`, `log_integral_exp` and the rhs share
it.  The H1 norms and `minus_laplacian` work on half spectra too; the full
complex pair `to_spectral`/`to_physical` remains for seeded data.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * np.pi


def _require_finite(values, what="field"):
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} contains non-finite values")


def _check_sign(sign):
    if sign not in (1.0, -1.0, 1, -1):
        raise ValueError("sign must be +1 or -1")


class SpectralGrid:
    """Uniform n1 x n2 sampling of the flat torus with periods (L1, L2).

    Carries the per-mode Laplacian symbol lam(k1,k2) = (2*pi*k1/L1)^2 +
    (2*pi*k2/L2)^2 in FFT ordering, the two-thirds dealias mask (which
    `dealias_half` applies to half spectra in place, the stepper's forcing
    mask, and whose kept modes `pack_kept_half` packs), the quadrature
    weight area/(n1*n2), and the Parseval weights of the half (rfft)
    spectrum, per column and, for Gram products, per float of its float
    view, plain and times the symbol.  All methods are pure; a grid is safe
    to share between threads.
    """

    def __init__(self, n1: int, n2: int, L1: float = TWO_PI, L2: float = TWO_PI):
        n1, n2 = int(n1), int(n2)
        if n1 % 2 or n2 % 2 or n1 < 8 or n2 < 8:
            raise ValueError(f"grid sizes must be even and >= 8, got {n1} x {n2}")
        if not (L1 > 0 and L2 > 0):
            raise ValueError(f"periods must be positive, got L1={L1}, L2={L2}")
        self.n1, self.n2 = n1, n2
        self.L1, self.L2 = float(L1), float(L2)
        self.area = self.L1 * self.L2
        self.cell_area = self.area / (n1 * n2)

        # integer wavenumbers in FFT order: 0, 1, ..., n/2-1, -n/2, ..., -1
        self.k1 = np.fft.fftfreq(n1, d=1.0 / n1)
        self.k2 = np.fft.fftfreq(n2, d=1.0 / n2)
        kx = TWO_PI * self.k1 / self.L1
        ky = TWO_PI * self.k2 / self.L2
        self.lap_symbol = np.ascontiguousarray(kx[:, None] ** 2 + ky[None, :] ** 2)
        self.dealias_mask = (np.abs(self.k1[:, None]) <= n1 // 3) & (
            np.abs(self.k2[None, :]) <= n2 // 3
        )
        ncol = n2 // 2 + 1
        # on the half spectrum the mask keeps two blocks of rows (k1 = 0..n1//3
        # and k1 = -n1//3..-1) on the columns k2 <= n2//3, and drops the one
        # block of rows between them (|k1| > n1//3) and the columns after them
        self._kept_rows = (slice(0, n1 // 3 + 1), slice(n1 - n1 // 3, n1))
        self._kept_columns = slice(0, n2 // 3 + 1)
        self._dropped_rows = slice(self._kept_rows[0].stop, self._kept_rows[1].start)
        self._dropped_columns = slice(self._kept_columns.stop, ncol)
        # the kept modes of a half spectrum, packed (`pack_kept_half`)
        self.kept_half_shape = (self._dropped_rows.start + n1 - self._dropped_rows.stop,
                                self._dropped_columns.start)

        # Parseval on the half spectrum: columns k2 = 0 and k2 = n2/2 are
        # their own Hermitian mirror and count once, every other column twice
        self.half_column_weights = np.full(ncol, 2.0)
        self.half_column_weights[0] = self.half_column_weights[-1] = 1.0
        # the same for the float view of a half spectrum (real and imaginary
        # parts side by side), plain and times the symbol: the weights of
        # L2 and gradient inner products by one product
        self.gram_weights = np.repeat(self.half_column_weights, 2)
        self.gram_gradient_weights = np.repeat(self.lap_symbol[:, :ncol], 2, axis=1) * self.gram_weights

        self.x1 = np.arange(n1) * (self.L1 / n1)
        self.x2 = np.arange(n2) * (self.L2 / n2)

    # -- transforms ---------------------------------------------------------
    # The package's only transform sites, one numpy.fft pass per axis in
    # the order of pocketfft's 2D transforms (the full pair axis -2 first;
    # np.fft.fft2 runs axis -1 first), so the half pair keeps their bits.

    def to_spectral(self, values: np.ndarray) -> np.ndarray:
        """Forward FFT of a real field (unnormalized convention)."""
        _require_finite(values)
        return np.fft.fft(np.fft.fft(values, axis=-2), axis=-1)

    def to_physical(self, modes: np.ndarray) -> np.ndarray:
        """Inverse FFT; returns the real part (fields are real-valued)."""
        return np.fft.ifft(np.fft.ifft(modes, axis=-2), axis=-1).real

    # Half-spectrum pair of the stepping hot path (real fields carry a
    # Hermitian-redundant spectrum; rfft keeps the n2//2+1 unique columns).
    # A dying run's non-finite spectra raise no warning: its status says so.

    def to_spectral_half_stack(self, fields: np.ndarray) -> np.ndarray:
        """Half spectra of a real field or of stacked real fields
        (..., n1, n2), batched over the leading axes (the same bits as one
        call per component)."""
        with np.errstate(invalid="ignore", over="ignore"):
            modes = np.fft.rfft(fields, axis=-1)
            return np.fft.fft(modes, axis=-2, out=modes)

    def to_physical_half_stack(self, modes: np.ndarray) -> np.ndarray:
        """The real field(s) of half spectra (..., n1, n2//2+1), batched
        over the leading axes."""
        with np.errstate(invalid="ignore", over="ignore"):
            return np.fft.irfft(np.fft.ifft(modes, axis=-2), n=self.n2, axis=-1)

    def dealias_half(self, modes: np.ndarray) -> np.ndarray:
        """Zero, in place, the modes of half spectra (..., n1, n2//2+1) that
        `dealias_mask` drops, by writing its two blocks of dropped modes (no
        pass over the kept ones, no temporary); returns `modes`."""
        modes[..., self._dropped_rows, :] = 0.0
        modes[..., self._dropped_columns] = 0.0
        return modes

    def pack_kept_half(self, modes: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Copy the modes of half spectra (..., n1, n2//2+1) that
        `dealias_mask` keeps into `out` (..., *kept_half_shape): its rows
        k1 = 0..n1//3, then k1 = -n1//3..-1; returns `out`."""
        head = self._kept_rows[0].stop
        out[..., :head, :] = modes[..., self._kept_rows[0], self._kept_columns]
        out[..., head:, :] = modes[..., self._kept_rows[1], self._kept_columns]
        return out

    def unpack_kept_half(self, packed: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write modes packed by `pack_kept_half` back into the kept modes of
        half spectra `out`, leaving its dropped modes as they are; returns
        `out`."""
        head = self._kept_rows[0].stop
        out[..., self._kept_rows[0], self._kept_columns] = packed[..., :head, :]
        out[..., self._kept_rows[1], self._kept_columns] = packed[..., head:, :]
        return out

    # -- quadrature and norms ------------------------------------------------

    def integrate(self, values: np.ndarray) -> float:
        """Integral over the torus: equal-weight rule, spectrally exact."""
        _require_finite(values)
        return self.cell_area * float(values.sum())

    def mean(self, values: np.ndarray) -> float:
        return self.integrate(values) / self.area

    def norm_l2(self, values: np.ndarray) -> float:
        return float(np.sqrt(self.cell_area * float((values * values).sum())))

    def seminorm_h1(self, values: np.ndarray) -> float:
        """L2 norm of the gradient, computed from the Laplacian symbol on the
        half spectrum: one product of its squared float view with
        `gram_gradient_weights`."""
        _require_finite(values)
        x = self.to_spectral_half_stack(values).view(np.float64)
        s = float(np.square(x, out=x).ravel() @ self.gram_gradient_weights.ravel())
        return float(np.sqrt(self.area * s)) / (self.n1 * self.n2)

    def norm_h1(self, values: np.ndarray) -> float:
        return float(np.hypot(self.seminorm_h1(values), self.norm_l2(values)))

    def minus_laplacian(self, values: np.ndarray) -> np.ndarray:
        """-Delta applied spectrally (the symbol is that of -Delta), on the
        half spectra of a field or of stacked fields (..., n1, n2)."""
        _require_finite(values)
        modes = self.to_spectral_half_stack(values)
        modes *= self.lap_symbol[:, : modes.shape[-1]]
        return self.to_physical_half_stack(modes)

    # -- stable exponentials --------------------------------------------------

    def shifted_exp(self, values, sign: float = 1.0, log_weight=None, out=None):
        """One exponential pass of the measure w*e^(sign*f), w = e^log_weight:
        out = e^(g - m) for the exponent g = sign*f + log w and m = max g,
        written into `out` (a float array of f's shape, fresh when None).

        Returns (out, m, sum of out): one max (for an unweighted e^(-f), the
        min of f, whose negation is m), which is also the finiteness check
        (a NaN or +inf in g raises ValueError), one exp pass and one sum.
        This is the pass behind `log_integral_exp`, `normalized_exp` and the
        rhs."""
        _check_sign(sign)
        values = np.asarray(values, dtype=np.float64)
        if out is None:
            out = np.empty(values.shape)
        g = values
        if log_weight is not None:
            g = np.add(values, log_weight, out=out) if sign > 0 else np.subtract(
                log_weight, values, out=out)
            m, sign = float(g.max()), 1.0
        elif sign > 0:
            m = float(values.max())
        else:
            m = -float(values.min())
        if not math.isfinite(m):
            raise ValueError("exponent contains non-finite values")
        # with sign -1 the shifted exponent is formed as (-m) - g, which has
        # the bits of (-g) - m without a negated copy of g
        if sign > 0:
            np.subtract(g, m, out=out)
        else:
            np.subtract(-m, g, out=out)
        np.exp(out, out=out)
        return out, m, float(out.sum())

    def log_integral_exp(self, values, sign: float = 1.0, log_weight=None) -> float:
        """log of integral of w * e^(sign*f), evaluated as a log-sum-exp.

        `sign` is +1 or -1; `log_weight` is the log of a positive weight
        field, taken once by the caller (`CouplingConfig.log_weight`).  Safe
        for |f| up to ~700; raises ValueError when sign*f + log w has a NaN
        or +inf.
        """
        _, m, s = self.shifted_exp(values, sign, log_weight)
        return m + float(np.log(self.cell_area * s))

    def normalized_exp(self, values, sign: float = 1.0, log_weight=None):
        """The probability density w*e^(sign*f) / integral(w*e^(sign*f)),
        with the weight given as in `log_integral_exp`.

        Returns (density, log_normalizer), the log_normalizer being
        `log_integral_exp` of the same arguments; the density integrates to 1
        up to round-off by construction.
        """
        out, m, s = self.shifted_exp(values, sign, log_weight)
        z = self.cell_area * s
        out /= z
        return out, m + float(np.log(z))

    # -- geometry --------------------------------------------------------------

    def mesh(self):
        """Broadcastable coordinate arrays (X1, X2) of the sample points."""
        return self.x1[:, None], self.x2[None, :]

    def torus_distance(self, center) -> np.ndarray:
        """Flat-metric distance from every grid point to `center`, with
        period wrapping."""
        c1 = float(center[0]) % self.L1
        c2 = float(center[1]) % self.L2
        d1 = np.abs(self.x1 - c1)
        d1 = np.minimum(d1, self.L1 - d1)
        d2 = np.abs(self.x2 - c2)
        d2 = np.minimum(d2, self.L2 - d2)
        return np.hypot(d1[:, None], d2[None, :])

    def __repr__(self):
        return (
            f"SpectralGrid({self.n1}x{self.n2}, "
            f"L=({self.L1:.6g}, {self.L2:.6g}))"
        )


def make_torus_grid(n1: int, n2: int, L1: float = TWO_PI, L2: float = TWO_PI) -> SpectralGrid:
    """Construct the discrete torus; sizes must be even and >= 8."""
    return SpectralGrid(n1, n2, L1, L2)
