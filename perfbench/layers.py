"""Per-layer metrics of a traced run, per round of the timed phase.

Each metric is listed with the end-to-end metric it should move, on which
workload (see README.md). Counts and times are summed over the timed phase
and divided by the number of rounds; ``busy_s`` is inclusive time, ``self_s``
is time minus traced child calls.
"""

from __future__ import annotations

import statistics

KERNELS = ("vector_potential", "a_star", "superpotential")


def layer_metrics(tracer, setup_trace: dict, res: dict, rnd) -> dict:
    rounds = len(res["walls"])
    wall = sum(res["walls"])

    def stat(name):
        s = tracer.stats.get(name)
        return (0, 0.0, 0.0) if s is None else (s.calls, s.busy, s.self_time)

    def calls(name):
        return stat(name)[0] / rounds

    def busy(name):
        return stat(name)[1] / rounds

    def self_s(name):
        return stat(name)[2] / rounds

    def per_op(kind: str, name: str) -> float:
        k = res["per_kind"].get(kind)
        return k.get(name, 0) / k["ops"] if k else 0.0

    stats = rnd.stats(res["outputs"])
    m: dict[str, tuple[float, str]] = {}
    for k in KERNELS:
        m[f"kernels.{k}.calls"] = (calls(f"kernels.{k}"), "count")
        m[f"kernels.{k}.busy_s"] = (busy(f"kernels.{k}"), "s")
    m["kernels.busy_share"] = (
        sum(stat(f"kernels.{k}")[1] for k in KERNELS) / wall, "share")
    for name in ("deriv", "laplacian"):
        m[f"grid.{name}.calls"] = (calls(f"grid.{name}"), "count")
        m[f"grid.{name}.busy_s"] = (busy(f"grid.{name}"), "s")
    m["grid.io.bytes"] = (float(stats.get("io_bytes", 0)), "B")
    m["grid.io.busy_s"] = (busy("grid.save_field") + busy("grid.load_field"), "s")
    for name in ("magnetic_energy", "susy_rhs", "el_residual", "inequality_battery"):
        m[f"functionals.{name}.self_s"] = (self_s(f"functionals.{name}"), "s")
    # a field's factorization check: magnetic_energy plus susy_rhs at -1, +1
    m["functionals.superpotential_per_field"] = (
        per_op("factorization", "kernels.superpotential"), "count")
    m["functionals.vector_potential_per_field"] = (
        per_op("factorization", "kernels.vector_potential"), "count")

    # iterations of every descent (two starts per estimate)
    iterations = tracer.results.get("variational._descend", [])
    evals = calls("variational._quotient_and_grad")
    m["variational.estimate_gamma.busy_s"] = (busy("variational.estimate_gamma"), "s")
    m["variational.quotient_evals"] = (evals, "count")
    m["variational.iterations"] = (
        float(statistics.median(iterations)) if iterations else 0.0, "count")
    m["variational.evals_per_iteration"] = (
        evals * rounds / sum(iterations) if sum(iterations) else 0.0, "count")
    norms = stats.get("grad_norms", [])
    m["variational.final_grad_norm"] = (
        float(statistics.median(norms)) if norms else 0.0, "norm")
    m["variational.townes_solve_s"] = (
        setup_trace.get("variational.townes_solve", (0, 0.0))[1], "s")

    m["wronskian_pairs.solve_generic.busy_s"] = (busy("wronskian_pairs.solve_generic"), "s")
    m["wronskian_pairs.ode_operator_matrix.calls"] = (
        calls("wronskian_pairs.ode_operator_matrix"), "count")
    m["wronskian_pairs.families_found"] = (float(stats.get("families_found", 0)), "count")
    m["poly.gcd.busy_s"] = (busy("poly.gcd"), "s")
    m["poly.roots.busy_s"] = (busy("poly.roots"), "s")
    m["soliton.same_orbit.busy_s"] = (busy("soliton.same_orbit"), "s")
    m["soliton.sample.busy_s"] = (busy("soliton.sample"), "s")
    return m
