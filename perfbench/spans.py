"""Call tracing for the traced benchmark run.

The program has no spans of its own yet, so the benchmark records them from
outside: it replaces each public function named in LAYER_FUNCTIONS by a
timing wrapper in every cssol module namespace that binds it (a name bound by
``from .grid import deriv`` is a separate binding and is patched too), and
puts the originals back afterwards. A function the program no longer has is
skipped, so its counts read 0.

Spans are aggregated in memory: per name the call count, the inclusive time
(``busy``; a call inside an active call of the same name adds no time) and
the self time (inclusive time minus the time of traced calls made inside
it), plus the caller -> callee call counts.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# (module, attribute) or (module, class, attribute) of every traced function
LAYER_FUNCTIONS = (
    ("cssol.kernels", "vector_potential"),
    ("cssol.kernels", "a_star"),
    ("cssol.kernels", "superpotential"),
    ("cssol.grid", "deriv"),
    ("cssol.grid", "laplacian"),
    ("cssol.grid", "save_field"),
    ("cssol.grid", "load_field"),
    ("cssol.functionals", "magnetic_energy"),
    ("cssol.functionals", "susy_rhs"),
    ("cssol.functionals", "el_residual"),
    ("cssol.functionals", "inequality_battery"),
    ("cssol.variational", "estimate_gamma"),
    ("cssol.variational", "_quotient_and_grad"),
    ("cssol.variational", "_descend"),
    ("cssol.variational", "townes_solve"),
    ("cssol.wronskian_pairs", "solve_generic"),
    ("cssol.wronskian_pairs", "ode_operator_matrix"),
    ("cssol.poly", "gcd"),
    ("cssol.poly", "roots"),
    ("cssol.soliton", "same_orbit"),
    ("cssol.soliton", "Soliton", "sample"),
)


# figures kept from the return values of some spans: a descent returns
# (values, quotient, gradient norm, iterations)
KEEP_RESULTS = {"variational._descend": lambda out: out[3]}


def span_name(target: tuple[str, ...]) -> str:
    """'cssol.soliton', 'Soliton', 'sample' -> 'soliton.sample'."""
    return target[0].split(".", 1)[1] + "." + target[-1]


class Stat:
    __slots__ = ("calls", "busy", "self_time")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0


class Tracer:
    """Aggregating span recorder; install() patches, restore() undoes."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.edges: dict[tuple[str, str], int] = {}
        self.results: dict[str, list] = {}
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def reset(self) -> None:
        self.stats.clear()
        self.edges.clear()
        for kept in self.results.values():
            kept.clear()

    def _wrap(self, name: str, fn):
        local = self._local
        keep = KEEP_RESULTS.get(name)
        kept = self.results.setdefault(name, []) if keep else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            frame = [name, 0.0]  # name, time of traced children
            nested = any(f[0] == name for f in stack)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if keep is not None:
                    kept.append(keep(out))
                return out
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                key = (parent[0] if parent else "", name)
                self.edges[key] = self.edges.get(key, 0) + 1
                s = self.stat(name)
                s.calls += 1
                s.self_time += dt - frame[1]
                if not nested:
                    s.busy += dt

        return traced

    def install(self) -> None:
        """Wrap every LAYER_FUNCTIONS entry the program has, wherever bound."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cssol" or n.startswith("cssol."))]
        for target in LAYER_FUNCTIONS:
            owner = sys.modules.get(target[0])
            if owner is None:
                continue
            if len(target) == 3:
                owner = getattr(owner, target[1], None)
                if owner is None or target[2] not in vars(owner):
                    continue
                original = vars(owner)[target[2]]
                self._patch(owner, target[2], self._wrap(span_name(target), original))
                continue
            original = getattr(owner, target[1], None)
            if original is None:
                continue
            wrapper = self._wrap(span_name(target), original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
