"""Dense complex polynomials in one variable and 2x2 transforms on pairs.

Coefficients are stored low-to-high (index = power of z). Degrees in this
package stay small (<= ~12), so everything is dense and exact up to floating
rounding. The zero polynomial has an empty coefficient array and degree None.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npp

# rank threshold on the relative singular values of the Sylvester matrix
GCD_EPS = 1e-9


@dataclass(frozen=True)
class ComplexPolynomial:
    """Immutable dense polynomial over the complex numbers."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex)).ravel()
        # strip exact trailing zeros so degree == len(coeffs) - 1
        nz = np.nonzero(c)[0]
        c = c[: nz[-1] + 1] if nz.size else np.zeros(0, dtype=complex)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    # -- basic structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0

    @property
    def degree(self):
        """Degree as an int, or None for the zero polynomial (sentinel)."""
        return None if self.is_zero else self.coeffs.size - 1

    @property
    def leading(self) -> complex:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return complex(self.coeffs[-1])

    def norm(self) -> float:
        """Euclidean norm of the coefficient vector."""
        return float(np.linalg.norm(self.coeffs)) if self.coeffs.size else 0.0

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        n = max(self.coeffs.size, other.coeffs.size)
        c = np.zeros(n, dtype=complex)
        c[: self.coeffs.size] += self.coeffs
        c[: other.coeffs.size] += other.coeffs
        return ComplexPolynomial(c)

    __radd__ = __add__

    def __neg__(self):
        return ComplexPolynomial(-self.coeffs)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        if np.isscalar(other):
            return ComplexPolynomial(self.coeffs * complex(other))
        other = _coerce(other)
        if self.is_zero or other.is_zero:
            return ComplexPolynomial([])
        return ComplexPolynomial(np.convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ComplexPolynomial):
            return NotImplemented
        return self.coeffs.shape == other.coeffs.shape and bool(
            np.all(self.coeffs == other.coeffs)
        )

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    def monic(self):
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        return ComplexPolynomial(self.coeffs / self.coeffs[-1])

    def close_to(self, other, rtol=1e-9) -> bool:
        scale = max(self.norm(), _coerce(other).norm(), 1e-300)
        return (self - other).norm() <= rtol * scale

    def __repr__(self):
        return f"ComplexPolynomial({list(self.coeffs)})"


def _coerce(p) -> ComplexPolynomial:
    if isinstance(p, ComplexPolynomial):
        return p
    if np.isscalar(p):
        return ComplexPolynomial([complex(p)])
    return ComplexPolynomial(p)


ZERO = ComplexPolynomial([])
ONE = ComplexPolynomial([1.0])


def from_roots(roots, leading=1.0) -> ComplexPolynomial:
    c = np.array([complex(leading)])
    for r in roots:
        c = np.convolve(c, np.array([-complex(r), 1.0]))
    return ComplexPolynomial(c)


def coefficient_rows(polys, n: int) -> np.ndarray:
    """The coefficient vectors of polys, zero-padded to length n, as rows."""
    out = np.zeros((len(polys), n), dtype=complex)
    for row, p in zip(out, polys):
        row[: p.coeffs.size] = p.coeffs
    return out


# -- operations ------------------------------------------------------------


def evaluate(p: ComplexPolynomial, z):
    """Horner-scheme evaluation; `z` may be a scalar or an ndarray."""
    p = _coerce(p)
    if p.is_zero:
        return np.zeros_like(np.asarray(z, dtype=complex)) if isinstance(
            z, np.ndarray
        ) else 0j
    if isinstance(z, np.ndarray):
        # in place: one array for the whole recurrence, not two per step
        acc = np.full_like(np.asarray(z, dtype=complex), p.coeffs[-1])
        for c in p.coeffs[-2::-1]:
            acc *= z
            acc += c
        return acc
    acc = p.coeffs[-1]
    for c in p.coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def taylor_table(polys, x: np.ndarray, n: int) -> np.ndarray:
    """Real T of shape (len(x), 2 len(polys), n + 1) with
    p_m(x_i + iy) = sum_k (T[i, 2m, k] + i T[i, 2m + 1, k]) y^k for real y:
    rows 2m and 2m + 1 hold the real and imaginary parts of i^k p_m^(k)(x_i)/k!.
    The Taylor coefficients at every x_i come from n rounds of synthetic
    division by z - x_i; each p_m has degree at most n."""
    c = np.repeat(coefficient_rows(polys, n + 1)[:, :, None], len(x), axis=2)
    for k in range(n):
        for j in range(n - 1, k - 1, -1):
            c[:, j] += x * c[:, j + 1]
    c *= np.array([1, 1j, -1, -1j])[np.arange(n + 1) % 4, None]  # exact: i^k
    return np.stack([c.real, c.imag], axis=1).transpose(3, 0, 1, 2).reshape(len(x), -1, n + 1)


def derivative(p: ComplexPolynomial) -> ComplexPolynomial:
    """p' as k c_k; a constant (and zero) gives ZERO."""
    c = _coerce(p).coeffs
    return ComplexPolynomial(c[1:] * np.arange(1, c.size)) if c.size > 1 else ZERO


def antiderivative(p: ComplexPolynomial) -> ComplexPolynomial:
    """Primitive with zero constant term."""
    p = _coerce(p)
    return ZERO if p.is_zero else ComplexPolynomial(npp.polyint(p.coeffs))


def wronskian(P: ComplexPolynomial, Q: ComplexPolynomial) -> ComplexPolynomial:
    """W(P,Q) = P'Q - PQ'."""
    P, Q = _coerce(P), _coerce(Q)
    return derivative(P) * Q - P * derivative(Q)


def divmod_poly(p: ComplexPolynomial, d: ComplexPolynomial):
    """Euclidean division p = q*d + r with deg r < deg d."""
    p, d = _coerce(p), _coerce(d)
    if d.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    r = p.coeffs.copy()
    dc = d.coeffs
    if r.size < dc.size:
        return ZERO, ComplexPolynomial(r)
    q = np.zeros(r.size - dc.size + 1, dtype=complex)
    for i in range(q.size - 1, -1, -1):
        q[i] = r[i + dc.size - 1] / dc[-1]
        r[i : i + dc.size] -= q[i] * dc
    return ComplexPolynomial(q), ComplexPolynomial(r)


def _common_degree(p: ComplexPolynomial, q: ComplexPolynomial, eps: float) -> int:
    """deg gcd(p, q) of two nonzero polynomials: the nullity of the Sylvester
    matrix of their unit-norm coefficient vectors at relative rank threshold
    eps. Unlike Euclidean remainders, this also sees a common factor whose
    roots rounding has pulled apart."""
    m, n = p.degree, q.degree
    S = np.zeros((m + n, m + n), dtype=complex)
    for i in range(n):
        S[i, i : i + m + 1] = p.coeffs / p.norm()
    for i in range(m):
        S[n + i, i : i + n + 1] = q.coeffs / q.norm()
    s = np.linalg.svd(S, compute_uv=False)
    return int(np.sum(s <= eps * s[0])) if s.size else 0


def _companion_roots(p: ComplexPolynomial) -> np.ndarray:
    """All roots of p, deg p >= 1, with multiplicity: its companion eigenvalues."""
    return np.linalg.eigvals(npp.polycompanion(p.coeffs))


def _scaled(p: ComplexPolynomial, vals: np.ndarray) -> ComplexPolynomial:
    """p(s z) with s the median modulus of vals (1 if that is 0), which puts
    the coefficients of a polynomial with roots vals on one scale."""
    s = float(np.median(np.abs(vals))) or 1.0
    return ComplexPolynomial(p.coeffs * s ** np.arange(p.coeffs.size))


def coprime(p: ComplexPolynomial, q: ComplexPolynomial) -> bool:
    """Whether p and q have no common root: deg gcd = 0 by _common_degree at
    GCD_EPS, with z scaled so that the median modulus of the roots of p and q is 1
    (the rank test is not scale invariant)."""
    p, q = _coerce(p), _coerce(q)
    if p.is_zero and q.is_zero:
        raise ValueError("coprimality of two zero polynomials is undefined")
    if p.is_zero or q.is_zero:
        return (p if q.is_zero else q).degree == 0
    if p.degree == 0 or q.degree == 0:
        return True
    vals = np.concatenate([_companion_roots(p), _companion_roots(q)])
    return _common_degree(_scaled(p, vals), _scaled(q, vals), GCD_EPS) == 0


def roots(p: ComplexPolynomial):
    """Distinct roots as (root, multiplicity), sorted by (re, im).

    p has d - deg gcd(p, p') distinct roots, the gcd degree taken from
    _common_degree at GCD_EPS with z scaled so that the median root modulus
    is 1 (a rank test on coefficients needs them on one scale). The
    companion-matrix eigenvalues are merged into exactly that many clusters,
    the two closest first; a cluster is one root at its centroid, with the
    cluster's size as multiplicity.
    """
    p = _coerce(p)
    if p.is_zero:
        raise ValueError("zero polynomial has all points as roots")
    if p.degree == 0:
        return []
    vals = _companion_roots(p)
    unit = _scaled(p.monic(), vals)
    distinct = p.degree - _common_degree(unit, derivative(unit), GCD_EPS)
    clusters = [[v] for v in vals]
    while len(clusters) > distinct:
        centers = [np.mean(cl) for cl in clusters]
        _, i, j = min((abs(centers[i] - centers[j]), i, j)
                      for i in range(len(clusters))
                      for j in range(i + 1, len(clusters)))
        clusters[i] += clusters.pop(j)
    out = [(complex(np.mean(cl)), len(cl)) for cl in clusters]
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


# -- 2x2 transforms on pairs ----------------------------------------------


@dataclass(frozen=True, eq=False)
class PairTransform:
    """A 2x2 complex matrix acting componentwise on a polynomial pair."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("PairTransform needs a 2x2 matrix")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def det(self) -> complex:
        m = self.entries
        return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])

    def is_special_unitary(self, tol: float = 1e-10) -> bool:
        m = self.entries
        return (bool(np.allclose(m.conj().T @ m, np.eye(2), atol=tol))
                and abs(self.det - 1) <= tol)

    def is_positive_scaled_su2(self, tol: float = 1e-10) -> bool:
        """matrix = c*U with c > 0 real and U in SU(2), within tol."""
        m = self.entries
        c = np.sqrt(abs(self.det))
        if c <= tol:
            return False
        return PairTransform(m / c).is_special_unitary(tol)


def act(transform: PairTransform, pair):
    """Componentwise matrix action on (P, Q).

    W(act(L, (P,Q))) = det(L) * W(P,Q).
    """
    P, Q = (_coerce(pair[0]), _coerce(pair[1]))
    m = transform.entries
    return (
        m[0, 0] * P + m[0, 1] * Q,
        m[1, 0] * P + m[1, 1] * Q,
    )
