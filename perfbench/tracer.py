"""Span recorder for the benchmark's traced runs.

Spans are recorded around calls into the public functions and methods of
the seven gplod modules, from outside the package: ``install`` replaces
each named function with a wrapper in every loaded gplod module that
holds a reference to it (``from .x import f`` makes copies of the name),
and class methods are replaced on the class.  Nothing under ``src/`` is
edited.  Spans are kept in memory; ``summarize`` turns them into
per-layer self times and counts.
"""

import functools
import inspect
import sys
import time

LAYERS = (
    "mesh",
    "sparse_linalg",
    "fem_core",
    "lod_space",
    "gpe_minimizer",
    "convergence_study",
    "cli",
)

# (module, attribute path, span name).  A span's layer is its module.
# Private helpers appear only where a named per-layer metric needs the
# boundary (the study's reference and saturation phases).
TARGETS = (
    ("mesh", "uniform_mesh", "uniform_mesh"),
    ("mesh", "refine", "refine"),
    ("mesh", "build_hierarchy", "build_hierarchy"),
    ("mesh", "MeshHierarchy.prolongation_full", "prolongation_full"),
    ("mesh", "MeshHierarchy.prolongation_interior", "prolongation_interior"),
    ("mesh", "MeshHierarchy.fine_tri_to_coarse", "fine_tri_to_coarse"),
    ("mesh", "export_mesh", "export_mesh"),
    ("sparse_linalg", "Factorization.__init__", "factor"),
    ("sparse_linalg", "Factorization.solve", "solve"),
    ("fem_core", "assemble_operators", "assemble_operators"),
    ("fem_core", "assemble_density_mass", "density_mass"),
    ("fem_core", "l4_norm4", "l4_norm4"),
    ("fem_core", "energy", "energy"),
    ("fem_core", "norms", "norms"),
    ("lod_space", "lod_space_cached", "lod_space_cached"),
    ("lod_space", "build_constraint", "constraint"),
    ("lod_space", "compute_correctors", "correctors"),
    ("lod_space", "load_basis", "cache_load"),
    ("lod_space", "save_basis", "cache_save"),
    ("gpe_minimizer", "minimize", "minimize"),
    ("gpe_minimizer", "DiscreteSpace.nonlinear_matrix", "nonlinear_matrix"),
    ("gpe_minimizer", "DiscreteSpace.solve_shifted", "solve_shifted"),
    ("gpe_minimizer", "DiscreteSpace.energy_of", "energy_of"),
    ("gpe_minimizer", "stationarity_residual", "stationarity_residual"),
    ("convergence_study", "run_study", "run_study"),
    ("convergence_study", "_compute_reference", "reference"),
    ("convergence_study", "_saturation_estimate", "saturation"),
    ("cli", "main", "main"),
)


# spans whose counters read the call's arguments
_ARGUMENT_READERS = ("lod_space.lod_space_cached", "sparse_linalg.solve")


def _nbytes(matrix):
    """Bytes held by a dense array or a scipy sparse matrix."""
    if hasattr(matrix, "nbytes"):
        return int(matrix.nbytes)
    return int(sum(getattr(matrix, a).nbytes for a in ("data", "indices", "indptr")))


class Tracer:
    """Spans (name, layer, start, end, parent) of one process, plus counters
    read from the wrapped calls' arguments and results."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [span_id, layer.name, start, end, parent_id]
        self.counters = {
            "correctors_count": 0,
            "cache_lookups": 0,
            "cache_hits": 0,
            "basis_bytes": 0,
            "steps": 0,
            "solve_rhs": {},
        }
        self._stack = []
        self.missing = []
        self.overhead_s = 0.0

    def _record(self, name, arguments, result):
        c = self.counters
        if name == "lod_space.correctors":
            c["correctors_count"] += int(result.basis.shape[1])
        elif name == "lod_space.lod_space_cached":
            space, hit = result
            if arguments.get("cache_dir") is not None:
                c["cache_lookups"] += 1
                c["cache_hits"] += bool(hit)
            c["basis_bytes"] += _nbytes(space.basis)
        elif name == "gpe_minimizer.minimize":
            c["steps"] += int(result.steps_taken)
        elif name == "sparse_linalg.solve":
            b = arguments["b"]
            cols = 1 if getattr(b, "ndim", 1) == 1 else int(b.shape[1])
            caller = self.spans[self._stack[-1]][1].split(".", 1)[0] if self._stack else "none"
            c["solve_rhs"][caller] = c["solve_rhs"].get(caller, 0) + cols

    def wrap(self, fn, name):
        """``fn`` with a span around each call."""
        tracer = self
        signature = inspect.signature(fn) if name in _ARGUMENT_READERS else None

        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [span_id, name, None, None, parent]
            tracer.spans.append(span)
            tracer._stack.append(span_id)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            arguments = {}
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            tracer._record(name, arguments, result)
            # the wrapper's own cost, outside the span; it lands in the
            # parent span's self time
            tracer.overhead_s += span[2] - entered + time.perf_counter() - span[3]
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        """Wrap every target found in the loaded gplod modules."""
        modules = [m for k, m in sys.modules.items() if k == "gplod" or k.startswith("gplod.")]
        for module_name, path, span_name in TARGETS:
            module = sys.modules.get(f"gplod.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapped = self.wrap(original, f"{module_name}.{span_name}")
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def dump(self):
        """Spans and counters as plain data, for writing out at the end."""
        return {
            "run_id": self.run_id,
            "spans": [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
                for s in self.spans
            ],
            "counters": self.counters,
            "missing": self.missing,
            "overhead_s": self.overhead_s,
        }


def self_times(spans):
    """Per-span self time: duration minus the time covered by child spans."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child.get(s["id"], 0.0) for s in spans}


def summarize(traces):
    """Per-layer metrics from the dumps of one or more traced processes.

    Every ``*_s`` value is self time, except the totals (children
    included): ``lod_space.correctors_s``, ``gpe_minimizer.minimize_s`` and
    ``step_s``, and the ``convergence_study`` phases (``rows_s`` is the study minus its
    reference and saturation phases).  The ``<layer>.self_s`` values add up
    to the duration of the root spans.  ``trace.overhead_s`` is the time
    spent in the span wrappers themselves, measured around each call.
    """
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    self_by_name = {}
    total_by_name = {}
    calls_by_name = {}
    by_caller = {}
    for trace in traces:
        spans = trace["spans"]
        selfs = self_times(spans)
        names = {s["id"]: s["name"] for s in spans}
        for s in spans:
            name = s["name"]
            layer = name.split(".", 1)[0]
            dur = s["end"] - s["start"]
            out[f"{layer}.self_s"] += selfs[s["id"]]
            self_by_name[name] = self_by_name.get(name, 0.0) + selfs[s["id"]]
            total_by_name[name] = total_by_name.get(name, 0.0) + dur
            calls_by_name[name] = calls_by_name.get(name, 0) + 1
            if layer == "sparse_linalg":
                caller = "none" if s["parent"] is None else names[s["parent"]].split(".", 1)[0]
                key = (name, caller)
                prev = by_caller.get(key, (0.0, 0))
                by_caller[key] = (prev[0] + dur, prev[1] + 1)

    def self_of(name):
        return self_by_name.get(name, 0.0)

    def total_of(name):
        return total_by_name.get(name, 0.0)

    def calls_of(name):
        return calls_by_name.get(name, 0)

    counters = [t["counters"] for t in traces]

    def count(key):
        return sum(c[key] for c in counters)

    out["mesh.calls"] = sum(n for name, n in calls_by_name.items() if name.startswith("mesh."))

    out["sparse_linalg.factor_s"] = self_of("sparse_linalg.factor")
    out["sparse_linalg.factor_calls"] = calls_of("sparse_linalg.factor")
    out["sparse_linalg.solve_s"] = self_of("sparse_linalg.solve")
    rhs = {}
    for c in counters:
        for caller, cols in c["solve_rhs"].items():
            rhs[caller] = rhs.get(caller, 0) + cols
    out["sparse_linalg.solve_rhs"] = sum(rhs.values())
    for caller in ("lod_space", "gpe_minimizer"):
        fs, fc = by_caller.get(("sparse_linalg.factor", caller), (0.0, 0))
        ss, _ = by_caller.get(("sparse_linalg.solve", caller), (0.0, 0))
        out[f"sparse_linalg.factor_s.{caller}"] = fs
        out[f"sparse_linalg.factor_calls.{caller}"] = fc
        out[f"sparse_linalg.solve_s.{caller}"] = ss
        out[f"sparse_linalg.solve_rhs.{caller}"] = rhs.get(caller, 0)

    out["fem_core.assemble_operators_s"] = self_of("fem_core.assemble_operators")
    out["fem_core.density_mass_s"] = self_of("fem_core.density_mass")
    out["fem_core.density_mass_calls"] = calls_of("fem_core.density_mass")
    out["fem_core.l4_norm4_s"] = self_of("fem_core.l4_norm4")

    lookups = count("cache_lookups")
    out["lod_space.correctors_s"] = total_of("lod_space.correctors")
    out["lod_space.correctors_count"] = count("correctors_count")
    out["lod_space.constraint_s"] = self_of("lod_space.constraint")
    out["lod_space.cache_load_s"] = self_of("lod_space.cache_load")
    out["lod_space.cache_save_s"] = self_of("lod_space.cache_save")
    out["lod_space.cache_hit_ratio"] = count("cache_hits") / lookups if lookups else 0.0
    out["lod_space.basis_mb"] = count("basis_bytes") / 1e6

    steps = count("steps")
    out["gpe_minimizer.minimize_s"] = total_of("gpe_minimizer.minimize")
    out["gpe_minimizer.steps"] = steps
    out["gpe_minimizer.step_s"] = out["gpe_minimizer.minimize_s"] / steps if steps else 0.0
    out["gpe_minimizer.nonlinear_matrix_s"] = self_of("gpe_minimizer.nonlinear_matrix")
    out["gpe_minimizer.solve_shifted_s"] = self_of("gpe_minimizer.solve_shifted")
    out["gpe_minimizer.energy_s"] = self_of("gpe_minimizer.energy_of")

    reference = total_of("convergence_study.reference")
    saturation = total_of("convergence_study.saturation")
    out["convergence_study.reference_s"] = reference
    out["convergence_study.saturation_s"] = saturation
    study = total_of("convergence_study.run_study")
    out["convergence_study.rows_s"] = study - reference - saturation

    out["trace.spans"] = sum(len(t["spans"]) for t in traces)
    out["trace.overhead_s"] = sum(t["overhead_s"] for t in traces)
    return out
