"""Coprime Wronskian pairs and the inverse problem W(P,Q) = f.

solve_generic returns three kinds of family, each the SL(2) orbit of one
validated pair: the primitive family (int f, 1) at every degree, the
closed-form split family at deg f = 2, and, for deg f >= 3, hits of a bounded
numerical search over the auxiliary polynomial R of the second-order ODE
f y'' - f' y' + R y = 0, every hit certified by its Wronskian residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import poly
from .poly import (
    ComplexPolynomial,
    PairTransform,
    act,
    antiderivative,
    coprime,
    derivative,
    wronskian,
)

RESIDUAL_RTOL = 1e-9
DEDUP_TOL = 1e-8
# R-search hits are accurate to about 1e-7 where f' has a multiple root (the
# search objective is quadratic there), so solve_generic deduplicates its
# families at this looser tolerance
SEARCH_DEDUP_TOL = 1e-6


class WronskianPair:
    """A pair (P, Q) with W(P, Q) != 0 and no common root, W cached.

    The constructor raises ValueError on any other pair."""

    __slots__ = ("P", "Q", "W")

    def __init__(self, P, Q):
        P = poly._coerce(P)
        Q = poly._coerce(Q)
        W = wronskian(P, Q)
        if W.is_zero:
            raise ValueError("pair is linearly dependent (W = 0)")
        if not coprime(P, Q):
            raise ValueError("pair is not coprime")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "W", W)

    def __setattr__(self, name, value):
        raise AttributeError("WronskianPair is immutable")

    @property
    def max_degree(self) -> int:
        return max(self.P.degree or 0, self.Q.degree or 0)

    def transformed(self, transform: PairTransform) -> "WronskianPair":
        P, Q = act(transform, (self.P, self.Q))
        return WronskianPair(P, Q)

    def __repr__(self):
        return f"WronskianPair(P={self.P!r}, Q={self.Q!r})"


@dataclass
class SolutionFamily:
    """One family of solutions of W(P,Q) = f: the SL(2) orbit of representative."""

    kind: str  # Primitive | Split | Search
    parameters: dict = field(default_factory=dict)
    representative: WronskianPair | None = None
    residual: float = 0.0

    def check(self, f: ComplexPolynomial) -> float:
        r = (self.representative.W - f).norm()
        scale = max(f.norm(), 1e-300)
        return r / scale


def _family(kind: str, P, Q, f: ComplexPolynomial, **parameters):
    """The family of the pair (P, Q) with its residual against f, or None
    when the pair is dependent or not coprime."""
    try:
        rep = WronskianPair(P, Q)
    except ValueError:
        return None
    fam = SolutionFamily(kind, {**parameters, "orbit": "SL(2)"}, rep)
    fam.residual = fam.check(f)
    return fam


def primitive_family(f: ComplexPolynomial) -> SolutionFamily:
    """The family of (int f, 1), which solves W = f for every nonzero f
    (R = 0 in the ODE)."""
    return _family("Primitive", antiderivative(f), poly.ONE, f, R="0")


def ode_operator_matrix(
    f: ComplexPolynomial, R: ComplexPolynomial, max_deg: int
) -> np.ndarray:
    """Coefficient matrix of y -> f y'' - f' y' + R y on span{1, ..., z^max_deg}:
    the R-free columns, with R added by _with_R."""
    fd = derivative(f)
    out_deg = max_deg + max(f.degree or 0, R.degree if not R.is_zero else 0)
    A = np.zeros((out_deg + 1, max_deg + 1), dtype=complex)
    for k in range(max_deg + 1):
        y = ComplexPolynomial([0.0] * k + [1.0])
        img = f * derivative(derivative(y)) - fd * derivative(y)
        A[: img.coeffs.size, k] = img.coeffs
    return _with_R(A, R.coeffs)


def ode_kernel(
    f: ComplexPolynomial,
    R: ComplexPolynomial,
    max_deg: int,
    sv_threshold: float = 1e-9,
) -> list[ComplexPolynomial]:
    """Nullspace basis of the restricted ODE map in echelon form (distinct
    degrees), unit coefficient norm."""
    f = poly._coerce(f)
    R = poly._coerce(R)
    if f.is_zero:
        raise ValueError("f must be nonzero")
    if max_deg > (f.degree or 0) + 1:
        raise ValueError("max_deg exceeds the deg(f)+1 solution bound")
    A = ode_operator_matrix(f, R, max_deg)
    _, s, vh = np.linalg.svd(A)
    smax = s[0] if s.size else 0.0
    sv = np.concatenate([s, np.zeros(A.shape[1] - s.size)])
    B = vh[sv <= sv_threshold * max(smax, 1.0)].conj()
    # echelon form from the top degree down: the basis degrees are distinct
    # and the terms above each pivot exactly zero (SVD rounding leaves ~1e-16
    # there, and a spurious top coefficient inflates the degree)
    row = 0
    for col in range(B.shape[1] - 1, -1, -1):
        if row == len(B):
            break
        p = row + int(np.argmax(np.abs(B[row:, col])))
        if abs(B[p, col]) <= 1e-12:
            B[row:, col] = 0.0
            continue
        B[[row, p]] = B[[p, row]]
        B[row] /= B[row, col]
        others = np.arange(len(B)) != row
        B[others] -= np.outer(B[others, col], B[row])
        B[others, col] = 0.0  # complex x/x need not round to exactly 1
        row += 1
    return [ComplexPolynomial(v / np.linalg.norm(v)) for v in B]


def top_rotation(pair: WronskianPair):
    """The SU(2) transform U that clears Q's coefficient at the top degree,
    and the rotated pair (P1, Q1) = act(U, (P, Q)), so deg Q1 < deg P1.

    The rotation cancels that coefficient, and any lower ones the span of
    (P, Q) lacks, only to rounding: Q1 has them dropped exactly, so that no
    later step divides by a rounding residue."""
    P, Q = pair.P, pair.Q
    a, b = P.coeff(pair.max_degree), Q.coeff(pair.max_degree)
    U = PairTransform(np.array([[np.conj(a), np.conj(b)], [-b, a]])
                      / np.sqrt(abs(a) ** 2 + abs(b) ** 2))
    P1, Q1 = act(U, (P, Q))
    c1 = Q1.coeffs.copy()
    c1[np.abs(c1) <= 1e-12 * max(P.norm(), Q.norm())] = 0.0
    return U, P1, ComplexPolynomial(c1)


def canonical_form(pair: WronskianPair) -> WronskianPair:
    """Deduplication normal form: rotate so deg P > deg Q, make P monic,
    and clear P's coefficient at power deg Q by a Q-shear. Idempotent."""
    _, P1, Q1 = top_rotation(pair)
    P1 = P1.monic()
    dq = Q1.degree
    if dq is not None:
        mu = P1.coeff(dq) / Q1.leading
        P1 = P1 - mu * Q1
    return WronskianPair(P1, Q1)


def _same_family(p1: WronskianPair, p2: WronskianPair, tol: float = DEDUP_TOL) -> bool:
    c1, c2 = canonical_form(p1), canonical_form(p2)
    # compare Q up to scale: the diag(mu, 1/mu) subgroup is invisible to the
    # monic-P canonical form
    q1, q2 = c1.Q.monic(), c2.Q.monic()
    scale = max(c1.P.norm() + q1.norm(), 1.0)
    return (c1.P - c2.P).norm() + (q1 - q2).norm() <= tol * scale


def _abel_rescale(P: ComplexPolynomial, Q: ComplexPolynomial, f: ComplexPolynomial):
    """Rescale (P,Q) -> (CP, Q) so that W = f exactly (when W proportional)."""
    W = wronskian(P, Q)
    if W.is_zero or W.degree != f.degree:
        return None
    C = f.leading / W.leading
    P2 = C * P
    W2 = wronskian(P2, Q)
    if (W2 - f).norm() > 1e-6 * max(f.norm(), 1.0):
        return None
    return P2, Q


def _with_R(A_f: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The ODE matrix A_f + sum_i r_i S_i: a copy of the R-free matrix A_f with
    R's coefficient r_i added at (i + k, k) in every column k. This is the one
    place R enters the matrix, for ode_operator_matrix and for the search."""
    A = A_f.copy()
    for k in range(A.shape[1]):
        A[k:k + r.size, k] += r
    return A


def _search_extra_families(f: ComplexPolynomial, seed: int, starts: int):
    """Multi-start damped search for R with 2-dim ODE kernel (deg f >= 3).

    Objective: sum of the two smallest singular values of the restricted ODE
    matrix, over R with deg R <= deg f - 2. The operator is affine in R, so
    the matrix is built once for R = 0 (A_f, with the 2 deg f + 2 rows every
    such R needs) and the objective adds R on its shifted diagonals. Every
    hit is certified by the Wronskian residual downstream, so the search
    itself is heuristic.
    """
    from scipy.optimize import minimize

    df = f.degree
    nR = df - 1  # coefficients R_0 .. R_{deg f - 2}
    scale = f.norm()
    A_f = ode_operator_matrix(f, poly.ZERO, df + 1)

    def objective(x):
        A = _with_R(A_f, x[:nR] + 1j * x[nR:])
        s = np.linalg.svd(A, compute_uv=False)
        s = np.sort(s)
        return float(s[0] + s[1])

    rng = np.random.default_rng(seed)
    hits = []
    x0s = [np.zeros(2 * nR)]
    for _ in range(starts):
        x0s.append(rng.normal(scale=scale, size=2 * nR))
    for x0 in x0s:
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000})
        if res.fun <= 1e-8 * max(scale, 1.0):
            hits.append(ComplexPolynomial(res.x[:nR] + 1j * res.x[nR:]))
    return hits


def _candidates(f: ComplexPolynomial, seed: int, starts: int):
    """(kind, P, Q, parameters) with W(P, Q) = f up to rounding, beyond the
    primitive pair: the closed-form split pair (z^2 - c/a, a z + b/2) at
    deg f = 2, the rescaled ODE-kernel pairs of the R-search hits above."""
    df = f.degree
    if df == 2:
        c, b, a = (complex(x) for x in f.coeffs)
        yield "Split", [-c / a, 0.0, 1.0], [b / 2.0, a], {"a": a, "b": b, "c": c}
    if df < 3:
        return
    for R in _search_extra_families(f, seed, starts):
        basis = ode_kernel(f, R, df + 1, sv_threshold=1e-7)
        basis.sort(key=lambda p: p.degree or 0, reverse=True)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                got = _abel_rescale(basis[i], basis[j], f)
                if got is not None:
                    yield "Search", *got, {"R": [complex(c) for c in R.coeffs]}


def solve_generic(
    f: ComplexPolynomial, seed: int = 42, starts: int = 8
) -> list[SolutionFamily]:
    """All families found for W(P,Q) = f, deduplicated modulo SL(2).

    The primitive family at every degree, the split family at deg f = 2 when
    f is not a perfect square, certified R-search hits at deg f >= 3. A
    candidate joins only as a validated (coprime, independent) pair.
    """
    f = poly._coerce(f)
    if f.is_zero:
        raise ValueError("zero polynomial has no Wronskian pair")
    fams = [primitive_family(f)]
    for kind, P, Q, parameters in _candidates(f, seed, starts):
        fam = _family(kind, P, Q, f, **parameters)
        if fam is not None and fam.residual <= RESIDUAL_RTOL and not any(
            _same_family(fam.representative, g.representative, SEARCH_DEDUP_TOL)
            for g in fams
        ):
            fams.append(fam)
    return fams
