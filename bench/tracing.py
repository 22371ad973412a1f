"""Per-layer tracing for the benchmark: wrapped sepcheck functions and counters.

The layers are sepcheck's modules.  Each traced function is rebound in every
``sepcheck.*`` namespace that holds it (modules import names with ``from .gf2
import rank``, so patching only the defining module would miss callers), and
methods are rebound on their class.  A span stack gives self time: a span's
duration minus the time covered by the traced spans it calls.
"""

from __future__ import annotations

import functools
import time

# module -> functions, as "name" or "Class.method"
TRACED = {
    "cli": ("analyze_instance", "main"),
    "complexes": ("barycentric_subdivide", "manifold_certificate", "link"),
    "maps": ("subdivide_map", "self_intersection", "chain_map"),
    "homology": ("chain_complex", "homology_basis", "cohomology_basis", "betti_numbers",
                 "induced_map_from_chain_matrix", "HomologyBasis.coordinates"),
    "gf2": ("rank", "solve", "kernel_basis", "column_space_basis", "vec_from_bits",
            "BitMatrix.column", "BitMatrix.transpose"),
    "duality": ("poincare_dual", "poincare_duality_check", "w1", "cohomology_class_is_zero"),
    "separation": ("beta0_formula_thm32", "eq1_identity_check", "complement_components_oracle"),
    "obstruction": ("obstruction_summary", "dual_class_Uf", "w1_of_map", "theta",
                    "theta_pushforward_check", "mu_solve"),
}

ELIMINATIONS = {"gf2.rank", "gf2.solve", "gf2.kernel_basis", "gf2.column_space_basis"}

COUNTERS = ("homology.chain_complex.distinct", "gf2.elim_cells", "gf2.max_cells",
            "complexes.link.scanned", "separation.oracle.nodes")


class Tracer:
    """Span-stack timer over the functions in ``TRACED``; one per traced pass."""

    def __init__(self, sc):
        self.sc = sc
        self.stack: list[list[float]] = []   # per open span: [time covered by children]
        # span name -> [calls, self_s, total_s]
        self.stats = {f"{m}.{f}": [0, 0.0, 0.0] for m, fs in TRACED.items() for f in fs}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.chain_complexes: set = set()
        self.op_max_shape = (0, 0)
        self._patches: list[tuple[object, str, object]] = []

    def _count(self, name: str, args) -> None:
        if name in ELIMINATIONS:
            m = args[0]
            cells = m.rows * m.cols
            self.counters["gf2.elim_cells"] += cells
            self.counters["gf2.max_cells"] = max(self.counters["gf2.max_cells"], cells)
            if cells > self.op_max_shape[0] * self.op_max_shape[1]:
                self.op_max_shape = (m.rows, m.cols)
        elif name == "homology.chain_complex":
            k = args[0]
            self.chain_complexes.add((k.name, len(k.simplices)))
            self.counters["homology.chain_complex.distinct"] = len(self.chain_complexes)
        elif name == "complexes.link":
            self.counters["complexes.link.scanned"] += len(args[0].simplices)
        elif name == "separation.complement_components_oracle":
            y, f_img = args[0], args[1]
            self.counters["separation.oracle.nodes"] += len(y.simplices) - len(f_img.simplices)

    def _wrap(self, name: str, fn):
        stack, count = self.stack, self._count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count(name, args)
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                st = self.stats[name]
                st[0] += 1
                st[1] += dt - frame[0]
                st[2] += dt
                if stack:
                    stack[-1][0] += dt
        return traced

    def install(self) -> None:
        """Rebind every traced function in each sepcheck namespace that holds it."""
        modules = list(vars(self.sc).values())
        for mod_name, funcs in TRACED.items():
            home = getattr(self.sc, mod_name)
            for qual in funcs:
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    targets = [(getattr(home, cls_name), attr)]
                    original = getattr(home, cls_name).__dict__[attr]
                else:
                    original = getattr(home, qual)
                    targets = [(m, a) for m in modules
                               for a, v in vars(m).items() if v is original]
                wrapped = self._wrap(f"{mod_name}.{qual}", original)
                for owner, attr in targets:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def module_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(TRACED, 0.0)
        for name, (_, self_s, _) in self.stats.items():
            out[name.split(".")[0]] += self_s
        return out
