"""The undeformed bound-state wavefunction in closed form, at 30 digits
in mpmath: the independent route the tests check ``psi_ordinary`` against
and seed continuations from.

Both functions take the system's float coupling g and energy eta as
exact and work from there, so at a quantized float eta the
hypergeometric factor is the nearby non-terminating one, an exact
solution of the equation built from the same floats.
"""

import mpmath as mp


def _psi(system):
    """psi as a function of an mpmath u, at the working precision."""
    g, eta = mp.mpf(system.g), mp.mpf(system.eta)
    mu, eps = mp.sqrt(mp.mpf(1) / 4 - g ** 2), mp.sqrt(1 - eta ** 2)
    a, b, c = 1.5 + mu, 0.5 - g * eta / eps + mu, 2 * mu + 1

    def at(u):
        base = 1 + 1j * u / eps
        return base ** (-a) / u * mp.hyp2f1(a, b, c, 2 / base)
    return at


def psi(system, u):
    """u^-1 (1 + i u/eps)^(-3/2 - mu) 2F1(3/2 + mu, 1/2 - w + mu; 2 mu + 1; 2/(1 + i u/eps))."""
    with mp.workdps(30):
        return complex(_psi(system)(mp.mpf(u)))


def psi_and_derivative(system, u):
    """(psi, dpsi/du) at u, the derivative by ``mp.diff``."""
    with mp.workdps(30):
        f, x = _psi(system), mp.mpf(u)
        return complex(f(x)), complex(mp.diff(f, x))
