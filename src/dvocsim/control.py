"""Grid-forming inverter control laws in the stationary alpha-beta frame.

Conventions used throughout the package:

* An alpha-beta signal is a real 2-vector ``(a, b)``; its Euclidean norm is
  the peak amplitude of the underlying sinusoid.  ``v_star`` is therefore a
  peak voltage (scenario files may give RMS; conversion happens in the
  parser, nowhere else).
* Instantaneous powers at a terminal are ``p = v @ i_o`` and
  ``q = v @ (J @ i_o)`` with ``J`` the quarter-turn rotation.  No RMS, 1/2 or
  3/2 factors are applied anywhere; with this convention a load of
  conductance ``g`` absorbs ``p = g * |v|**2``.  Positive ``q`` is delivery
  to an inductive load; a shunt capacitor shows up as negative ``q``.
* Angles are radians, frequencies rad/s.  Polar angles are kept unwrapped so
  frequency can be estimated by differentiation.

All functions are pure and stateless.
"""

import math

from .values import value_type


@value_type(frozen=True)
class DvocParams:
    """Oscillator controller constants and set-points.

    eta     -- synchronization gain, Ohm*rad/s
    alpha   -- amplitude regulation gain, Siemens
    kappa   -- rotation angle matching the network's impedance angle, rad,
               in [0, pi]; pi/2 for inductive lines, 0 for resistive lines
    p_star  -- active power set-point, W
    q_star  -- reactive power set-point, var
    v_star  -- voltage amplitude set-point (peak), V
    omega0  -- nominal grid frequency, rad/s
    """

    eta: float
    alpha: float
    kappa: float
    p_star: float
    q_star: float
    v_star: float
    omega0: float

    def __post_init__(self):
        vals = [self.eta, self.alpha, self.kappa, self.p_star, self.q_star,
                self.v_star, self.omega0]
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("DvocParams fields must be finite")
        if self.eta <= 0.0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not 0.0 <= self.kappa <= math.pi:
            raise ValueError(f"kappa must be in [0, pi], got {self.kappa}")
        if self.v_star <= 0.0:
            raise ValueError(f"v_star must be > 0, got {self.v_star}")
        if self.omega0 <= 0.0:
            raise ValueError(f"omega0 must be > 0, got {self.omega0}")


@value_type(frozen=True)
class DroopParams:
    """Conventional droop controller constants (frequency and amplitude laws).

    kp -- frequency droop coefficient, rad/s per W
    kq -- amplitude droop coefficient, V per var
    """

    kp: float
    kq: float
    omega0: float
    v_star: float
    p_star: float
    q_star: float

    def __post_init__(self):
        vals = [self.kp, self.kq, self.omega0, self.v_star, self.p_star, self.q_star]
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("DroopParams fields must be finite")
        if self.v_star <= 0.0:
            raise ValueError(f"v_star must be > 0, got {self.v_star}")
        if self.omega0 <= 0.0:
            raise ValueError(f"omega0 must be > 0, got {self.omega0}")


@value_type(frozen=True)
class PolarState:
    """Voltage in polar form: (amplitude, unwrapped angle)."""

    magnitude: float
    theta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.magnitude) and math.isfinite(self.theta)):
            raise ValueError("PolarState fields must be finite")
        if self.magnitude < 0.0:
            raise ValueError(f"magnitude must be >= 0, got {self.magnitude}")


def dvoc_rhs_polar(state, p, q, params):
    """Oscillator law in polar coordinates: (d|v|/dt, dtheta/dt).

    General-kappa form; for kappa = pi/2 it reduces to
        dtheta/dt = omega0 + eta (p_star/v_star^2 - p/|v|^2)
        d|v|/dt   = eta (q_star/v_star^2 - q/|v|^2) |v|
                    + (eta alpha / v_star^2)(v_star^2 - |v|^2) |v|.
    The polar chart is singular at the origin, so magnitude must be > 0.
    """
    r = state.magnitude
    if r <= 0.0:
        raise ValueError("polar form undefined at zero magnitude")
    vs2 = params.v_star**2
    cp = params.p_star / vs2 - p / r**2
    cq = params.q_star / vs2 - q / r**2
    ck, sk = math.cos(params.kappa), math.sin(params.kappa)
    dmag = params.eta * r * (ck * cp + sk * cq) \
        + params.eta * params.alpha / vs2 * (vs2 - r**2) * r
    dtheta = params.omega0 + params.eta * (sk * cp - ck * cq)
    return dmag, dtheta


def droop_approx_freq(p, params):
    """Small-deviation frequency droop: omega0 + (eta/v_star^2)(p_star - p)."""
    return params.omega0 + params.eta / params.v_star**2 * (params.p_star - p)


def droop_approx_vmag_ss(q, params):
    """Coarse steady-state amplitude droop: v_star + (q_star - q)/(alpha v_star).

    This is the droop-coefficient form obtained by linearizing the amplitude
    law with |v|^2 ~ |v| v_star; its slope is twice the true tangent of the
    exact stationary curve (see droop_vmag_tangent_ss).
    """
    return params.v_star + (params.q_star - q) / (params.alpha * params.v_star)


def droop_vmag_tangent_ss(q, params):
    """First-order expansion of the exact stationary amplitude around (q_star, v_star).

    d|v|/dq of the kappa = pi/2 stationary condition at the set-point is
    -1 / (2 (alpha v_star - q_star / v_star)), half the slope of the coarse
    droop-coefficient form for q_star = 0.  Elementwise over q; NaN
    throughout where alpha v_star^2 <= q_star, which leaves no tangent.
    """
    denom = 2.0 * (params.alpha * params.v_star - params.q_star / params.v_star)
    return params.v_star + (params.q_star - q) / (denom if denom > 0.0 else math.nan)
