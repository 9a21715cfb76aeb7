"""Correctness checks with references computed apart from the program.

Every reference here comes from a closed form or from the paper's formulas,
recomputed with NumPy alone; nothing is read back from cssol. Each check
returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import math

import numpy as np

# Weinstein's sharp Gagliardo-Nirenberg constant: ||Q||^2 / 2 = pi * 1.86225
C_LGN_WEINSTEIN = math.pi * 1.86225
MM_UNIT_GAUSSIAN = math.log(4.0 / 3.0) / 2.0
QUARTIC_RING_1 = 1.0 / (3.0 * math.pi)


def paper_bounds(beta: float, c: float = C_LGN_WEINSTEIN) -> tuple[float, float]:
    """Lower/upper bounds on gamma*(beta) from the paper's formulas."""
    lower = max(0.5 * (c + math.sqrt(c * c + 4.0 * math.pi**2 * beta**2)),
                2.0 * math.pi * beta)
    upper = min(c * (1.0 + 1.5 * beta**2),
                2.0 * math.pi * beta + 0.5 * math.pi * max(2.0 - beta, 0.0) ** 2)
    return lower, upper


def ring_ratio_closed(n: int, beta: float) -> float:
    """E_{beta, 2 pi beta}[u_n] / int |u_n|^4 = pi (2n-1)/(n(n+1)) (beta-2n)^2."""
    return math.pi * (2 * n - 1) / (n * (n + 1)) * (beta - 2 * n) ** 2


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def _within(label: str, got: float, want: float, rtol: float) -> list[str]:
    if not (math.isfinite(got) and _rel(got, want) <= rtol):
        return [f"{label} {got!r} is not within {rtol:g} of {want!r}"]
    return []


def _at_most(label: str, got: float, limit: float) -> list[str]:
    if not (math.isfinite(got) and got <= limit):
        return [f"{label} {got!r} exceeds {limit:g}"]
    return []


# -- gamma descent ----------------------------------------------------------


def gamma_at_zero(gamma_hat: float) -> list[str]:
    return _within("gamma_hat(0)", gamma_hat, C_LGN_WEINSTEIN, 2e-2)


def gamma_at_two(gamma_hat: float) -> list[str]:
    return _within("gamma_hat(2)", gamma_hat, 4.0 * math.pi, 2e-2)


def gamma_sandwich(beta: float, gamma_hat: float) -> list[str]:
    lower, upper = paper_bounds(beta)
    if not (0.97 * lower <= gamma_hat <= 1.03 * upper):
        return [f"gamma_hat({beta}) = {gamma_hat!r} outside "
                f"[0.97 * {lower:.6g}, 1.03 * {upper:.6g}]"]
    return []


def gamma_over_beta_nonincreasing(betas, gammas, slack: float = 0.03) -> list[str]:
    ratios = [g / b for b, g in zip(betas, gammas)]
    return [f"gamma/beta rises from beta={betas[i]} to beta={betas[i + 1]}: "
            f"{ratios[i]:.6g} -> {ratios[i + 1]:.6g}"
            for i in range(len(ratios) - 1)
            if ratios[i + 1] > ratios[i] * (1.0 + slack)]


# -- field identities -------------------------------------------------------


def factorization(beta: float, total: float, quartic: float, gap: float,
                  minus: float, plus: float) -> list[str]:
    """E - 2 pi beta q and E + 2 pi beta q against their weighted squares."""
    scale = total + 2.0 * math.pi * beta * quartic
    worst = max(abs(gap - minus), abs(total + 2.0 * math.pi * beta * quartic - plus)) / scale
    return _at_most(f"factorization defect at beta={beta}", worst, 1e-4)


def no_violations(margins: dict[str, float], tol: float = 1e-6) -> list[str]:
    return [f"inequality {name} violated: margin {m!r}"
            for name, m in margins.items() if not m >= -tol]


def unit_mass(mass: float) -> list[str]:
    return _within("mass", mass, 1.0, 1e-2)


def saturation(gap: float, total: float) -> list[str]:
    """E_beta = 2 pi beta int |u|^4 on a minimizer at beta = 2n."""
    return _at_most("|gap|/E", abs(gap) / total, 1e-3)


def stationarity(residual: float) -> list[str]:
    return _at_most("soliton el_residual", residual, 1e-2)


def ring_ratio(n: int, beta: float, got: float) -> list[str]:
    """Error measured on the scale of the beta = 0 value, as the law's gate."""
    scale = ring_ratio_closed(n, 0.0)
    err = abs(got - ring_ratio_closed(n, beta)) / scale
    return _at_most(f"ring ratio error n={n} beta={beta}", err, 1e-2)


def quartic_ring_1(got: float) -> list[str]:
    return _within("int |u_1|^4", got, QUARTIC_RING_1, 5e-3)


def menger_gaussian(got: float) -> list[str]:
    return _within("Menger-Melnikov of the unit Gaussian", got, MM_UNIT_GAUSSIAN, 5e-3)


def bit_identical(a: np.ndarray, b: np.ndarray) -> list[str]:
    if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
        return ["field round trip is not bit-identical"]
    return []


# -- pair algebra -----------------------------------------------------------


def liouville(residual: float) -> list[str]:
    return _at_most("Liouville residual", residual, 1e-6)


def flux(flux_over_8pi: float, max_degree: int) -> list[str]:
    return _within("flux / 8 pi", flux_over_8pi, float(max_degree), 1e-2)


def orbit_witness(found: bool, T, p1, p2, tol: float = 1e-6) -> list[str]:
    """T = c U with c > 0 and U in SU(2), and T maps the pair p1 onto p2.

    p1, p2 are (P, Q) coefficient arrays, low to high.
    """
    if not found or T is None:
        return ["same_orbit found no witness for a transformed pair"]
    T = np.asarray(T, dtype=complex)
    det = T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0]
    c2 = abs(det)
    problems = []
    if not (c2 > tol and abs(det - c2) <= tol * c2
            and np.allclose(T.conj().T @ T, c2 * np.eye(2), atol=tol * c2)):
        problems.append("orbit witness is not a positive multiple of SU(2)")
    P1, Q1 = (_pad(p, 1 + max(len(p1[0]), len(p1[1]), len(p2[0]), len(p2[1])))
              for p in p1)
    P2, Q2 = (_pad(p, len(P1)) for p in p2)
    gap = (np.linalg.norm(T[0, 0] * P1 + T[0, 1] * Q1 - P2)
           + np.linalg.norm(T[1, 0] * P1 + T[1, 1] * Q1 - Q2))
    if not gap <= tol * (np.linalg.norm(P2) + np.linalg.norm(Q2)):
        problems.append(f"orbit witness does not map the pair (gap {gap:.3g})")
    return problems


def _pad(c, n: int) -> np.ndarray:
    out = np.zeros(n, dtype=complex)
    c = np.asarray(c, dtype=complex)
    out[: c.size] = c
    return out


def wronskian_coeffs(P, Q) -> np.ndarray:
    """W(P,Q) = P'Q - PQ' from coefficient arrays (low to high)."""
    P = np.asarray(P, dtype=complex)
    Q = np.asarray(Q, dtype=complex)
    pd = np.polynomial.polynomial.polyder(P) if P.size > 1 else np.zeros(1, complex)
    qd = np.polynomial.polynomial.polyder(Q) if Q.size > 1 else np.zeros(1, complex)
    return np.polynomial.polynomial.polysub(
        np.polynomial.polynomial.polymul(pd, Q),
        np.polynomial.polynomial.polymul(P, qd))


def wronskian_residual(P, Q, f) -> float:
    w = wronskian_coeffs(P, Q)
    f = np.asarray(f, dtype=complex)
    n = max(w.size, f.size)
    return float(np.linalg.norm(_pad(w, n) - _pad(f, n))
                 / max(np.linalg.norm(f), 1e-300))


def same_span(pair_a, pair_b, tol: float = 1e-6) -> bool:
    """Whether two pairs span the same 2-D space of polynomials: the
    coefficient rows of both pairs, stacked, have numerical rank 2."""
    n = max(len(c) for c in (*pair_a, *pair_b))
    rows = []
    for c in (*pair_a, *pair_b):
        v = _pad(c, n)
        rows.append(v / max(np.linalg.norm(v), 1e-300))
    s = np.linalg.svd(np.array(rows), compute_uv=False)
    return bool(s[1] > tol and (s.size < 3 or s[2] <= tol * s[0]))


def inverse_residuals(families, f, tol: float = 1e-10) -> list[str]:
    """families: (P, Q) coefficient arrays; every W(P,Q) must equal f."""
    out = []
    for P, Q in families:
        r = wronskian_residual(P, Q, f)
        if not r <= tol:
            out.append(f"family with Wronskian residual {r:.3g} > {tol:g}")
    return out


def family_sets_equal(found, expected) -> list[str]:
    """Found and expected families match span for span, both ways."""
    out = []
    for e in expected:
        if not any(same_span(e, r) for r in found):
            out.append(f"expected family {_show(e)} not returned")
    for r in found:
        if not any(same_span(r, e) for e in expected):
            out.append(f"unexpected family {_show(r)} returned")
    return out


def contains_family(found, target) -> bool:
    return any(same_span(target, r) for r in found)


def _show(pair) -> str:
    return "(" + ", ".join(np.array2string(np.asarray(c), precision=3) for c in pair) + ")"
