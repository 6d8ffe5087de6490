"""The state-vector oracle: the two-time statistics from spin states.

The package builds the grand joint from three real closed forms. This
module computes it the other way, from complex eigenstates and the
singlet, so that the tests compare two derivations of the same numbers.
Its inputs are checked as the package checks an angle and a sign.

- One-qubit basis order is ``(|z+>, |z->)``; the two-qubit product basis
  order is ``(++, +-, -+, --)``.
- ``kron_joint`` projects the singlet onto each early product state
  built with ``np.kron``; ``matrix_joint`` takes all 16 amplitudes at once
  as the matrix product of the two analyzers' eigenbases with the singlet.
"""

from __future__ import annotations

import math

import numpy as np

from eprb_lab.errors import InvalidScenarioError, integer, real
from eprb_lab.quantum import QUADRUPLES, Scenario


def make_spin_state(angle: float, sign: int) -> np.ndarray:
    """Eigenstate of the spin component along a coplanar direction.

    Returns the two complex amplitudes in the ``(|z+>, |z->)`` basis:
    ``(cos(angle/2), sin(angle/2))`` for outcome ``+1`` and
    ``(-sin(angle/2), cos(angle/2))`` for outcome ``-1``.
    """
    if integer(sign, "outcome sign", InvalidScenarioError, -1, 1) == 0:
        raise InvalidScenarioError("outcome sign must be +1 or -1, got 0")
    half = 0.5 * real(angle, "angle", InvalidScenarioError)  # the half angle is not reduced
    if sign == 1:
        return np.array([math.cos(half), math.sin(half)], dtype=complex)
    return np.array([-math.sin(half), math.cos(half)], dtype=complex)


def make_singlet() -> np.ndarray:
    """Normalized two-particle singlet in the ``(++, +-, -+, --)`` basis."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return np.array([0.0, inv_sqrt2, -inv_sqrt2, 0.0], dtype=complex)


def transition_prob(m_from: float, s_from: int, m_to: float, s_to: int) -> float:
    """Probability that a particle leaving analyzer ``m_from`` with outcome
    ``s_from`` yields outcome ``s_to`` at analyzer ``m_to``: the squared
    inner product of the two eigenstates."""
    amp = np.vdot(make_spin_state(m_from, s_from), make_spin_state(m_to, s_to))
    return float(abs(amp) ** 2)


def analyzer_matrix(angle: float) -> np.ndarray:
    """Columns are the +1 and -1 eigenstates of the analyzer at ``angle``."""
    return np.column_stack([make_spin_state(angle, 1), make_spin_state(angle, -1)])


def kron_joint(sc: Scenario) -> list[float]:
    """Per quadruple, the product of three squared overlaps: the singlet on
    the early product state, and each particle's early-to-late transition."""
    psi = make_singlet()
    probs = []
    for a1, b1, a2, b2 in QUADRUPLES:
        early = np.kron(make_spin_state(sc.a, a1), make_spin_state(sc.b, b1))
        p_early = abs(np.vdot(early, psi)) ** 2
        t_a = transition_prob(sc.a, a1, sc.a_prime, a2)
        t_b = transition_prob(sc.b, b1, sc.b_prime, b2)
        probs.append(p_early * t_a * t_b)
    return probs


def matrix_joint(sc: Scenario) -> list[float]:
    """The same 16 probabilities from 2x2 matrix products of the analyzers'
    eigenbases, in the canonical quadruple order."""
    u_a, u_b = analyzer_matrix(sc.a), analyzer_matrix(sc.b)
    # amp[A1, B1] = <u_a(A1) x u_b(B1) | singlet>
    p_early = np.abs(u_a.conj().T @ make_singlet().reshape(2, 2) @ u_b.conj()) ** 2
    t_a = np.abs(u_a.conj().T @ analyzer_matrix(sc.a_prime)) ** 2  # [A1, A2]
    t_b = np.abs(u_b.conj().T @ analyzer_matrix(sc.b_prime)) ** 2  # [B1, B2]
    probs = p_early[:, :, None, None] * t_a[:, None, :, None] * t_b[None, :, None, :]
    # Axis order (A1, B1, A2, B2) with +1 at index 0 flattens in QUADRUPLES order.
    return probs.reshape(16).tolist()
