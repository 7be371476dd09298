"""Independent reference computations for the test suite.

Everything here is deliberately written with different algorithms than the
package (adaptive quadrature instead of closed forms, recurrences instead of
product formulas, brute-force scans instead of pruned enumeration) so that
agreement is meaningful.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm

from wavemoment._kernels import ramp_integral


def combo(frequencies, amplitudes):
    """Callable f(t) = sum_j amp_j exp(i nu_j t)."""
    freqs = np.asarray(frequencies, dtype=complex)
    amps = np.asarray(amplitudes, dtype=complex)

    def f(t):
        return np.sum(amps * np.exp(1j * freqs * t))

    return f


def sample_rounding_bound(signal, t):
    """Bound on |f_s - f_d| at each point of ``t`` between the samples f_s
    of ``signal.sample(t.size)`` (points t = linspace, step dt) and the
    direct sums f_d = ``signal.evaluate(t)``: the same exact sum, rounded
    two ways.

    First order in u = eps / 2, per term j of size m_j = |a_j e^{i nu_j t}|,
    n terms:
    - time: the sample is taken at fl(b B dt) + fl(q dt), each within u of
      its exact value, and the written t = fl(i dt) (the last, T, is within
      u T of (count - 1) dt): they differ by at most 2u t;
    - arguments: fl(nu s) is within u |nu| s, once for the direct sum at t
      and twice for the sample (s = t_b and q dt, adding up to t); with the
      time this moves each term by at most 4u |nu_j| t m_j;
    - exponentials: numpy's e^x (cos y + i sin y) is within 5u of itself
      per component (each real function within 1 ulp, 2u, and one product
      rounding): 15u m_j for the sample's lead and step and the direct
      table's entry;
    - the product a_j e^{i nu_j t_b}: within sqrt(5) u < 3u (Brent,
      Percival and Zimmermann, Math. Comp. 76, 2007);
    - the two sums over the terms (the sample's of leads times steps, the
      direct one of amplitudes times the table): a complex inner product of
      length n is within sqrt(2) gamma_{n+2} sum_j |x_j| |y_j| of its value,
      products included (Higham, Accuracy and Stability, section 3.6), at
      most 1.5 (n + 2) u sum_j m_j each.
    Together u sum_j m_j (4 |nu_j| t + 24 + 3n), which is at most
    C eps sum_j m_j (1 + |nu_j| t) with C = 12 + 1.5 n.
    """
    t = np.asarray(t, dtype=float)
    freqs, amps = signal.frequencies, signal.amplitudes
    terms = np.abs(amps * np.exp(1j * np.multiply.outer(t, freqs)))
    scale = (terms * (1.0 + np.abs(freqs) * t[:, None])).sum(axis=-1)
    return (12.0 + 1.5 * freqs.size) * np.finfo(float).eps * scale


def quad_complex(func, lo, hi):
    re = quad(lambda t: func(t).real, lo, hi, limit=400)[0]
    im = quad(lambda t: func(t).imag, lo, hi, limit=400)[0]
    return re + 1j * im


def inner_product(f, omega, duration):
    """(f, e_omega) = int_0^T f(t) conj(exp(i omega t)) dt by quadrature."""
    return quad_complex(lambda t: f(t) * np.conj(np.exp(1j * omega * t)),
                        0.0, duration)


def duhamel(k, lam, beta, f, duration):
    """Terminal (a, adot) for one mode by adaptive quadrature of the
    sine/cosine convolution kernels.  Handles omega = 0 by the t-limit."""
    w2 = k * k + lam
    w = np.sqrt(complex(w2))
    if w.real < 0 or (w.real == 0 and w.imag < 0):
        w = -w
    if abs(w) < 1e-13:
        s_ker = lambda tau: (duration - tau)
        c_ker = lambda tau: 1.0
    else:
        s_ker = lambda tau: np.sin(w * (duration - tau)) / w
        c_ker = lambda tau: np.cos(w * (duration - tau))
    gain = (2.0 * k / np.pi) * beta
    a = gain * quad_complex(lambda t: f(t) * s_ker(t), 0.0, duration)
    adot = gain * quad_complex(lambda t: f(t) * c_ker(t), 0.0, duration)
    return a, adot


def physical_state(a, b, modes, frequencies, amplitudes, duration):
    """Terminal sine coefficients (u_n(T), u_n'(T)), rows n = 1..modes, of
    u_tt - u_xx + A u = 0 driven from rest by the boundary control
    f(t) = sum_j amp_j exp(i nu_j t), in physical coordinates.

    Mode n obeys y' = M y + g f with M = [[0, I], [-(n^2 I + A), 0]] and
    g = [0; (2n/pi) b]; the response to one term e^{i nu t} over [0, T] is
    the top-right column of expm([[M, g], [0, i nu]] T) (Van Loan, IEEE
    TAC 23, 1978).  A is never diagonalized: no eigenvalue, beta or omega.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n = a.shape[0]
    nus = np.asarray(frequencies, dtype=complex)
    amps = np.asarray(amplitudes, dtype=complex)
    aug = np.zeros((nus.size, 2 * n + 1, 2 * n + 1), dtype=complex)
    aug[:, :n, n:2 * n] = np.eye(n)
    aug[:, 2 * n, 2 * n] = 1j * nus
    u = np.empty((modes, n), dtype=complex)
    ut = np.empty_like(u)
    for mode in range(1, modes + 1):
        aug[:, n:2 * n, :n] = -(mode * mode * np.eye(n) + a)
        aug[:, n:2 * n, 2 * n] = (2.0 * mode / np.pi) * b
        y = amps @ expm(aug * duration)[:, :2 * n, 2 * n]
        u[mode - 1], ut[mode - 1] = y[:n], y[n:]
    return u, ut


def poly_root_bisection(coeffs, lo, hi, iters=200):
    """Real root of a polynomial (highest degree first) by bisection."""
    p = lambda x: np.polyval(coeffs, x)
    flo = p(lo)
    assert flo * p(hi) < 0, "no sign change in bracket"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * p(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = p(lo)
    return 0.5 * (lo + hi)


def dd_weights(nodes):
    """Divided-difference weights by the recursive definition.

    Returns w with [x_1..x_m]g = sum w_j g(x_j), built from
    [x_1..x_m] = ([x_2..x_m] - [x_1..x_{m-1}]) / (x_m - x_1).
    """
    nodes = list(nodes)
    m = len(nodes)
    if m == 1:
        return np.array([1.0 + 0j])
    upper = dd_weights(nodes[1:])
    lower = dd_weights(nodes[:-1])
    w = np.zeros(m, dtype=complex)
    w[1:] += upper
    w[:-1] -= lower
    return w / (nodes[-1] - nodes[0])


def brute_resonances(lams, res_tol):
    """All (k, l, i, j) with |k^2 - l^2 - (lam_i - lam_j)| <= res_tol,
    by scanning a generous k, l square."""
    lams = np.asarray(lams, dtype=complex)
    n = len(lams)
    bound = max((abs(lams[i] - lams[j]) for i in range(n) for j in range(n)),
                default=0.0) + 1.0
    k_hi = int(np.ceil(bound)) + 2
    out = []
    for k in range(1, k_hi + 1):
        for l in range(1, k_hi + 1):
            if k == l:
                continue
            gap = k * k - l * l
            if abs(gap) > bound:
                continue
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    defect = abs(gap - (lams[i] - lams[j]))
                    if defect <= res_tol:
                        out.append((k, l, i + 1, j + 1, defect))
    return sorted(out, key=lambda t: t[:4])


def sine_series(coeffs):
    """Callable x -> sum_n c_n sin(n x) for a dict {n: c_n}."""

    def u(x):
        return sum(c * np.sin(n * x) for n, c in coeffs.items())

    return u


# Earlier, unvectorized forms of package code, kept as references for the
# element-wise rewrites that must reproduce them bit for bit.

def phase_integral_masked(delta, duration, switch):
    """int_0^T e^{i delta t} dt: the series and the closed form each
    evaluated on its own masked copy of delta, then scattered."""
    d = np.asarray(delta, dtype=complex)
    scalar = d.ndim == 0
    d = np.atleast_1d(d)
    out = np.empty(d.shape, dtype=complex)
    small = np.abs(d) <= switch
    x = 1j * d[small] * duration
    out[small] = duration * (1.0 + x / 2.0 + x * x / 6.0)
    big = ~small
    db = d[big]
    out[big] = (np.exp(1j * db * duration) - 1.0) / (1j * db)
    return out[0] if scalar else out


def duhamel_per_mode(spec, grid, control, duration, tol):
    """Terminal (a, adot) tables, one phase integral call per mode and sign."""
    nus, amps = control.frequencies, control.amplitudes
    a = np.zeros((grid.k_max, grid.n), dtype=complex)
    adot = np.zeros_like(a)
    sw = tol.series_switch
    for ki in range(grid.k_max):
        for li in range(grid.n):
            w = grid.omega[ki, li]
            if abs(w) <= tol.zero_tol:
                s_kernel = ramp_integral(nus, duration, switch=sw)
                c_kernel = phase_integral_masked(nus, duration, sw)
            else:
                fwd = np.exp(1j * w * duration) \
                    * phase_integral_masked(nus - w, duration, sw)
                bwd = np.exp(-1j * w * duration) \
                    * phase_integral_masked(nus + w, duration, sw)
                s_kernel = (fwd - bwd) / (2j * w)
                c_kernel = (fwd + bwd) / 2.0
            gain = (2.0 * (ki + 1) / math.pi) * spec.beta[li]
            a[ki, li] = gain * (amps @ s_kernel)
            adot[ki, li] = gain * (amps @ c_kernel)
    return a, adot


def resonances_enumerated(lams, res_tol):
    """resonance_check by walking every (k, l) with 0 < k^2 - l^2 <= the
    eigenvalue spread + 1 against every ordered eigenvalue pair."""
    lam = np.asarray(lams, dtype=complex)
    n = lam.shape[0]
    if n < 2:
        return []
    bound = float(np.abs(lam[None, :] - lam[:, None]).max()) + 1.0
    found = []
    lo = 1
    while 2 * lo + 1 <= bound:  # smallest gap for this lo is (lo+1)^2 - lo^2
        hi = lo + 1
        while hi * hi - lo * lo <= bound:
            gap = hi * hi - lo * lo
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    defect = abs(gap - (lam[i] - lam[j]))
                    if defect <= res_tol:
                        found.append((hi, lo, i + 1, j + 1, float(defect)))
                        found.append((lo, hi, j + 1, i + 1, float(defect)))
            hi += 1
        lo += 1
    found.sort(key=lambda t: t[:4])
    return found


def resonances_trial_division(lams, res_tol):
    """resonance_check with each matching gap split by a Python loop of
    trial division up to its square root."""
    lam = np.asarray(lams, dtype=complex)
    n = lam.shape[0]
    if n < 2:
        return []
    bound = float(np.abs(lam[None, :] - lam[:, None]).max()) + 1.0
    found = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            diff = lam[i] - lam[j]
            first = max(3, math.floor(diff.real - res_tol))
            last = min(math.floor(bound), math.ceil(diff.real + res_tol))
            for gap in range(first, last + 1):
                defect = abs(gap - diff)
                if defect > res_tol:
                    continue
                for p in range(1, math.isqrt(gap) + 1):
                    q, rem = divmod(gap, p)
                    if rem == 0 and q > p and (q - p) % 2 == 0:
                        hi, lo = (q + p) // 2, (q - p) // 2
                        found.append((hi, lo, i + 1, j + 1, float(defect)))
                        found.append((lo, hi, j + 1, i + 1, float(defect)))
    found.sort(key=lambda t: t[:4])
    return found
