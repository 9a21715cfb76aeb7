"""Coprime Wronskian pairs and the inverse problem W(P,Q) = f.

A family is the SL(2) orbit of one validated pair (P, Q), which is the 2-D
span of {P, Q}. The span's normal form is its reduced echelon form from the
top degree down (_echelon): ode_kernel returns it, solve_generic
deduplicates on it, and canonical_form is it with both rows monic, so that
deg Q = k < deg P. The span is the kernel of the second-order ODE
f y'' - f' y' + R y = 0 for one polynomial R, and Q's roots solve the sl2
Bethe equations with the roots of f as sites. solve_generic returns every
family: the primitive family (int f, 1) at k = 0 and, for k = 1..deg f // 2,
one candidate R per joint eigenvector of the sl2 Gaudin Hamiltonians
(Scherbak & Varchenko, Moscow Math. J. 3, 2003; Mukhin, Tarasov &
Varchenko, Ann. of Math. 170, 2009), each turned into a pair by the ODE
kernel and certified by its Wronskian residual.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import poly
from .poly import (
    ComplexPolynomial,
    PairTransform,
    act,
    antiderivative,
    coefficient_rows,
    coprime,
    derivative,
    wronskian,
)

RESIDUAL_RTOL = 1e-9
DEDUP_TOL = 1e-8
# a family with a multiple Bethe root is a defective eigenvalue of the
# Gaudin Hamiltonians, determined only to about sqrt(machine eps): z^3 + 1
# at k = 1 gives two copies of (z^3 - 2, z) whose unit echelon rows are
# 6.3e-8 apart, so solve_generic deduplicates its families at this looser
# tolerance
SOLVE_DEDUP_TOL = 1e-6


@dataclass(frozen=True, slots=True, eq=False)
class WronskianPair:
    """A pair (P, Q) with W(P, Q) != 0 and no common root, W cached.

    The constructor raises ValueError on any other pair."""

    P: ComplexPolynomial
    Q: ComplexPolynomial
    W: ComplexPolynomial = field(init=False, repr=False)

    def __post_init__(self):
        P = poly._coerce(self.P)
        Q = poly._coerce(self.Q)
        W = wronskian(P, Q)
        if W.is_zero:
            raise ValueError("pair is linearly dependent (W = 0)")
        if not coprime(P, Q):
            raise ValueError("pair is not coprime")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "Q", Q)
        if P.degree == Q.degree:
            # W is a constant times the Wronskian of the span's echelon rows,
            # of degrees m > k, so its degree is exactly m + k - 1; the top
            # terms of P'Q and PQ' cancel only to rounding above it
            k = ComplexPolynomial(_span(self, P.degree + 1)[1]).degree
            W = ComplexPolynomial(W.coeffs[: P.degree + k])
        object.__setattr__(self, "W", W)

    @property
    def max_degree(self) -> int:
        return max(self.P.degree or 0, self.Q.degree or 0)

    def transformed(self, transform: PairTransform) -> "WronskianPair":
        P, Q = act(transform, (self.P, self.Q))
        return WronskianPair(P, Q)


def _residual(pair: WronskianPair, f: ComplexPolynomial) -> float:
    """|W(P, Q) - f| / |f| on the coefficient vectors."""
    return (pair.W - f).norm() / max(f.norm(), 1e-300)


@dataclass(frozen=True, slots=True, eq=False)
class SolutionFamily:
    """One family of solutions of W(P,Q) = f: the SL(2) orbit of representative."""

    kind: str  # Primitive (k = 0) | Bethe (k >= 1)
    parameters: dict
    representative: WronskianPair
    residual: float  # _residual of representative against f

    def check(self, f: ComplexPolynomial) -> float:
        return _residual(self.representative, f)


def _family(kind: str, P, Q, f: ComplexPolynomial, **parameters):
    """The family of the pair (P, Q) with its residual against f, or None
    when the pair is dependent or not coprime."""
    try:
        rep = WronskianPair(P, Q)
    except ValueError:
        return None
    return SolutionFamily(kind, {**parameters, "orbit": "SL(2)"}, rep, _residual(rep, f))


def primitive_family(f: ComplexPolynomial) -> SolutionFamily:
    """The family of (int f, 1), which solves W = f for every nonzero f
    (R = 0 in the ODE)."""
    return _family("Primitive", antiderivative(f), poly.ONE, f, k=0, R=[])


def ode_operator_matrix(
    f: ComplexPolynomial, R: ComplexPolynomial, max_deg: int
) -> np.ndarray:
    """Coefficient matrix of y -> f y'' - f' y' + R y on span{1, ..., z^max_deg}:
    column k, the image of z^k, is k(k-1) f from row k-2, minus k f' from
    row k-1, plus R from row k."""
    fc, fd, rc = f.coeffs, derivative(f).coeffs, R.coeffs
    out_deg = max_deg + max(f.degree or 0, R.degree if not R.is_zero else 0)
    A = np.zeros((out_deg + 1, max_deg + 1), dtype=complex)
    for k in range(max_deg + 1):
        if k > 1:
            A[k - 2 : k - 2 + fc.size, k] += k * (k - 1) * fc
        if k > 0:
            A[k - 1 : k - 1 + fd.size, k] -= k * fd
        A[k : k + rc.size, k] += rc
    return A


def _echelon(B: np.ndarray) -> np.ndarray:
    """Reduced echelon form of the rows of B from the top degree down, each
    row of unit norm: the normal form of their span. The row degrees are
    distinct and the terms above each pivot exactly zero (SVD rounding
    leaves up to ~3e-12 there at deg f = 10, and a spurious top coefficient
    inflates the degree)."""
    B = B.astype(complex)
    row = 0
    for col in range(B.shape[1] - 1, -1, -1):
        if row == len(B):
            break
        p = row + int(np.argmax(np.abs(B[row:, col])))
        if abs(B[p, col]) <= 1e-10:
            B[row:, col] = 0.0
            continue
        B[[row, p]] = B[[p, row]]
        B[row] /= B[row, col]
        others = np.arange(len(B)) != row
        B[others] -= np.outer(B[others, col], B[row])
        B[others, col] = 0.0  # complex x/x need not round to exactly 1
        row += 1
    return np.array([v / np.linalg.norm(v) for v in B])


def ode_kernel(
    f: ComplexPolynomial, R: ComplexPolynomial, max_deg: int
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
    _, s, vh = np.linalg.svd(A)  # A has no fewer rows than columns
    null = vh[s <= 1e-9 * max(s[0], 1.0)].conj()
    return [ComplexPolynomial(v) for v in _echelon(null)]


def _span(pair: WronskianPair, n: int) -> np.ndarray:
    """The echelon form of span{P, Q} in the coefficients of degree < n."""
    rows = coefficient_rows((pair.P, pair.Q), n)
    return _echelon(np.linalg.svd(rows, full_matrices=False)[2])


def canonical_form(pair: WronskianPair) -> WronskianPair:
    """Deduplication normal form: the echelon form of the span with both
    rows monic, so deg Q < deg P and P has no term at power deg Q.
    Idempotent."""
    P, Q = (ComplexPolynomial(v).monic() for v in _span(pair, pair.max_degree + 1))
    return WronskianPair(P, Q)


def _same_family(p1: WronskianPair, p2: WronskianPair) -> bool:
    """Whether the spans of p1 and p2, one SL(2) orbit each, agree within DEDUP_TOL."""
    n = 1 + max(p1.max_degree, p2.max_degree)
    return bool(np.linalg.norm(_span(p1, n) - _span(p2, n)) <= DEDUP_TOL)


def _abel_rescale(P: ComplexPolynomial, Q: ComplexPolynomial, f: ComplexPolynomial):
    """(CP, Q) with W(CP, Q) and f sharing their leading coefficient, so
    W = f when W(P, Q) is proportional to f (the residual certificate of the
    caller decides whether it is)."""
    return f.leading / wronskian(P, Q).leading * P, Q


def bethe_coefficients(f: ComplexPolynomial, k: int) -> list[ComplexPolynomial]:
    """The candidate ODE coefficients R of the families with deg Q = k
    (1 <= k <= deg f / 2), one per eigenvector of the sl2 Gaudin
    Hamiltonians on the singular vectors of weight deg f - 2k.

    Site j is the spin V_{m_j} of the root z_j of f of multiplicity m_j, with
    the occupation basis v_0..v_{m_j}: f v_i = (i+1) v_{i+1},
    e v_{i+1} = (m_j - i) v_i, h v_i = (m_j - 2i) v_i. The Hamiltonians
    H_j = sum_{l != j} (e_j f_l + f_j e_l + h_j h_l / 2) / (z_j - z_l) commute
    and keep the singular vectors (the null space of sum_j e_j), so the fixed
    combination sum_j H_j / (j + pi) has their joint eigenvectors. One with
    H_j-eigenvalues E_j gives R = sum_j rho_j f / (z - z_j), where
    rho_j = sum_{l != j} m_j m_l / (2 (z_j - z_l)) - E_j = m_j Q'(z_j)/Q(z_j).
    """
    z, m = zip(*poly.roots(f))
    n = len(z)
    w = np.zeros((n, n), dtype=complex)
    off = ~np.eye(n, dtype=bool)
    w[off] = 1.0 / np.subtract.outer(z, z)[off]
    # occupations a in prod_j [0, m_j]: the states with sum a = k span the
    # weight deg f - 2k space of the tensor product of the spins
    occupations = list(itertools.product(*(range(mj + 1) for mj in m)))
    states = [a for a in occupations if sum(a) == k]
    index = {a: i for i, a in enumerate(states)}
    lower = {a: i for i, a in enumerate(a for a in occupations if sum(a) == k - 1)}
    E = np.zeros((len(lower), len(states)))  # sum_j e_j, weight k -> k - 1
    H = np.zeros((n, len(states), len(states)), dtype=complex)
    for col, a in enumerate(states):
        h = np.array(m) - 2 * np.array(a)
        H[:, col, col] = 0.5 * h * (w @ h)
        for j in range(n):
            if a[j] == 0:
                continue
            down = a[:j] + (a[j] - 1,) + a[j + 1:]
            E[lower[down], col] = m[j] - a[j] + 1
            for l in range(n):
                if l == j or a[l] == m[l]:
                    continue
                # e_j f_l moves one quantum from site j to site l; it is a
                # term of H_j with weight w[j, l] and of H_l with w[l, j]
                b = down[:l] + (down[l] + 1,) + down[l + 1:]
                c = (a[l] + 1) * (m[j] - a[j] + 1)
                H[j, index[b], col] += c * w[j, l]
                H[l, index[b], col] += c * w[l, j]
    # sum_j e_j is onto weight k - 1 for k <= deg f / 2, so its null space
    # has exactly len(states) - len(lower) dimensions
    N = np.linalg.svd(E)[2][len(lower):].T
    Hs = N.T @ H @ N
    _, vecs = np.linalg.eig(np.tensordot(1.0 / (np.arange(n) + np.pi), Hs, 1))
    energies = np.einsum("is,jit,ts->sj", vecs.conj(), Hs, vecs)
    rho = 0.5 * np.array(m) * (w @ np.array(m)) - energies
    quotients = np.array([poly.divmod_poly(f, poly.from_roots([zj]))[0].coeffs
                          for zj in z])
    return [ComplexPolynomial(r @ quotients) for r in rho]


def solve_generic(f: ComplexPolynomial) -> list[SolutionFamily]:
    """Every family of W(P,Q) = f, deduplicated modulo SL(2).

    The primitive family, then for each k = 1..deg f // 2 the families with
    deg Q = k: each candidate R of bethe_coefficients gives the pair spanning
    the ODE kernel, rescaled so that W = f. A candidate is dropped when its
    kernel's echelon rows lie within SOLVE_DEDUP_TOL of those of a kept
    family of its k; otherwise it joins as a validated (coprime,
    independent) pair within RESIDUAL_RTOL of f.
    """
    f = poly._coerce(f)
    if f.is_zero:
        raise ValueError("zero polynomial has no Wronskian pair")
    fams = [primitive_family(f)]
    for k in range(1, f.degree // 2 + 1):
        kept = []  # echelon rows of this k's families; families of two k differ
        for R in bethe_coefficients(f, k):
            basis = ode_kernel(f, R, f.degree + 1)
            if len(basis) != 2:
                continue
            rows = coefficient_rows(basis, f.degree + 2)
            if kept and np.linalg.norm(np.subtract(kept, rows),
                                       axis=(1, 2)).min() <= SOLVE_DEDUP_TOL:
                continue
            fam = _family("Bethe", *_abel_rescale(*basis, f), f, k=k,
                          R=[complex(c) for c in R.coeffs])
            if fam is not None and fam.residual <= RESIDUAL_RTOL:
                fams.append(fam)
                kept.append(rows)
    return fams
