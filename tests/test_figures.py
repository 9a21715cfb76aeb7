"""Figures outside the acceptance gates, recorded for --figures=PATH (see
conftest.py) at full precision, so two revisions can be compared figure by
figure: the descent's gamma_hat, iterations, stop_reason, ascent slope,
final gradient norm and a SHA-256 of its minimizer on 12,128 and 12,64 at
seeds 1 and 7, beta in {0, 0.5, 1, 1.5, 2, 3}, the identity checks on the
40,1024 n = 1 ring, the computed rows of `cssol townes` (c_lgn, tau(0)), of
`cssol verify-soliton --vortex n=1` and of `cssol verify-identities`
(seeded smooth fields) on their default grids, the Liouville residual of
four seeded pairs, their flux over 8 pi and soliton mass on 40,1024, and the
solve_generic family counts per k of a fixed list of f. The ledger is a
record, not a gate: these tests assert only that each number is finite (a
slope may be None) and each stop_reason one the descent gives."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from cssol import poly
from cssol.cli import main
from cssol.functionals import el_residual, liouville_residual, magnetic_energy, susy_rhs
from cssol.grid import Grid, integrate, quadrature
from cssol.poly import ComplexPolynomial
from cssol.sampling import normalized, random_pair
from cssol.soliton import LiouvilleSolution, Soliton, radial_ring
from cssol.variational import DescentConfig, estimate_gamma
from cssol.wronskian_pairs import solve_generic

STOP_REASONS = ("grad_tol", "plateau", "ascent", "line_search", "max_iter")


def _record(request, criterion, figures):
    request.node.user_properties.append(("figures", {criterion: figures}))
    numbers = [v for v in figures.values() if v is not None and not isinstance(v, str)]
    assert all(math.isfinite(v) for v in numbers), figures


# the reference descents: each grid and seed at each beta
DESCENTS = [(M, seed, beta) for M in (128, 64) for seed in (1, 7)
            for beta in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)]


def _descent_id(case):
    """The test id: grid, seed and beta; the five descents recorded first
    keep their old id, the beta alone."""
    M, seed, beta = case
    return str(beta) if (M, seed) == (128, 1) and beta < 3 else f"12,{M}-seed{seed}-{beta}"


@pytest.mark.parametrize("M,seed,beta", DESCENTS, ids=map(_descent_id, DESCENTS))
def test_descent_figures(request, M, seed, beta):
    est = estimate_gamma(beta, DescentConfig(grid=Grid(12.0, M), seed=seed))
    _record(request, f"descent 12,{M} seed {seed} beta={beta:g}", {
        "gamma_hat": est.gamma_hat,
        "iterations": est.iterations,
        "final_gradient_norm": est.final_gradient_norm,
        "stop_reason": est.stop_reason,
        "ascent_slope": est.ascent_slope,
        "minimizer_sha256": hashlib.sha256(est.minimizer.values.tobytes()).hexdigest(),
    })
    assert est.stop_reason in STOP_REASONS


def test_ring_identity_figures(request):
    u = normalized(radial_ring(1).sample(Grid(40.0, 1024)))
    res, lam = el_residual(u, 2.0, 4.0 * np.pi)
    report = dataclasses.asdict(magnetic_energy(u, 2.0))
    _record(request, "ring n=1 40,1024 beta=2", {
        "el_residual": res,
        "el_lambda": lam,
        **{f"energy_{k}": v for k, v in report.items()},
        "susy_rhs_plus": susy_rhs(u, 2.0, 1),
        "susy_rhs_minus": susy_rhs(u, 2.0, -1),
    })


@pytest.mark.parametrize("argv", [["townes"], ["verify-soliton", "--vortex", "n=1"],
                                  ["verify-identities"]])
def test_cli_row_figures(request, tmp_path, argv):
    out = tmp_path / "rows.json"
    main([*argv, "--out", str(out)])
    rows = json.loads(out.read_text())
    _record(request, "cssol " + " ".join(argv), {r["name"]: r["computed"] for r in rows})


def test_liouville_residual_figures(request):
    g = Grid(8.0, 256)
    _record(request, "liouville_residual 8,256", {
        f"seed {seed}": liouville_residual(
            random_pair(np.random.default_rng(seed), max_degree=4), g)
        for seed in range(4)})


def test_pair_figures(request):
    """The pair layer's flux int |f|^2 e^psi / 8 pi, from the pointwise rhs,
    and the soliton's mass on 40,1024 for four seeded pairs."""
    g = Grid(40.0, 1024)
    figures = {}
    for seed in range(4):
        pair = random_pair(np.random.default_rng(seed), max_degree=4)
        rhs = g.sample(LiouvilleSolution(pair).rhs)
        figures[f"seed {seed} flux_over_8pi"] = integrate(rhs) / (8.0 * math.pi)
        figures[f"seed {seed} mass"] = quadrature(Soliton(pair).sample(g), 2)
    _record(request, "pair layer 40,1024", figures)


def test_family_count_figures(request):
    """Families per k. z^5+1 reads [1, 4, 5], though it has only one k = 1
    family (ROADMAP item 7)."""
    rng = np.random.default_rng(5)
    cases = {
        "z^5+1": ComplexPolynomial([1.0, 0, 0, 0, 0, 1.0]),
        "z^3+1": ComplexPolynomial([1.0, 0, 0, 1.0]),
        "(z-1)^2(z+1)(z-2)": poly.from_roots([1.0, 1.0, -1.0, 2.0]),
        **{f"real roots deg {d}": poly.from_roots(rng.standard_normal(d)) for d in (6, 7, 8)},
    }
    figures = {}
    for name, f in cases.items():
        counts = [0] * (f.degree // 2 + 1)
        for fam in solve_generic(f):
            counts[fam.parameters["k"]] += 1
        figures.update({f"{name} k={k}": n for k, n in enumerate(counts)})
    _record(request, "solve_generic families per k", figures)
