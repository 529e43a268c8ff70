"""Command-line interface: solve, study, and correctors commands.

Configuration files are INI text with [domain], [potential], [flow],
[study], and [solve] sections (see the presets shipped in
``gplod/presets``).  ``main`` is the one command runner: it resolves the
config path, parses the config and its overrides, runs the command, and
writes the command's JSON manifest, ``<out>/<command>_manifest.json``,
recording the fully resolved configuration, so any CSV can be reproduced
from its manifest alone.  A configuration error writes no manifest.

Plain-text dump formats: ``--dump-solution`` writes one line "x y value"
per fine-mesh node; ``--dump-mesh`` writes a "# nodes N" header, one line
"x y boundary_flag" per node, a "# triangles T" header, and one line
"i j k" of node indices per triangle.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical failure.
"""

import argparse
import configparser
import json
import resource
import sys
import time
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

from . import __version__
from .convergence_study import StudyConfig, run_study, write_csv, write_gnuplot
from .fem_core import Potential, assemble_operators
from .gpe_minimizer import FlowParams, coarse_fem_space, fine_space, lod_discrete_space, minimize
from .lod_space import cache_path, lod_space_cached, nested_lod_space, save_basis
from .mesh import Rect, build_hierarchy, export_mesh, refinement_count, uniform_mesh

USAGE_ERROR = 1
NUMERICAL_ERROR = 2

_PRESETS = ("harmonic", "checkerboard", "checkerboard_reduced", "smoke")

# every key a config may set, section by section (the README "Config schema")
CONFIG_KEYS = {
    "domain": ("xmin", "xmax", "ymin", "ymax"),
    "potential": ("kind", "value", "square_side", "low", "high"),
    "flow": ("tau", "max_steps"),
    "study": (
        "beta", "reference_cells", "h_sequence", "baseline_coarse_fem",
        "saturation_check", "cache_dir",
    ),
    "solve": ("space", "cells", "coarse_cells", "beta"),
}


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


@contextmanager
def _config_values():
    """Report a ValueError raised while resolving configuration values (a
    domain, potential, flow, study or mesh size) as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


class _ArgumentParser(argparse.ArgumentParser):
    """Reports command-line usage errors with the documented exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _resolve_config_path(name_or_path):
    """A literal path, or the name of a shipped preset."""
    p = Path(name_or_path)
    if p.exists():
        return p
    if name_or_path in _PRESETS:
        return resources.files("gplod.presets") / f"{name_or_path}.cfg"
    raise ConfigError(f"config file not found: {name_or_path}")


def parse_config(text, overrides=()):
    """Parse INI text plus ``section.key=value`` overrides into a dict.

    A section or key missing from ``CONFIG_KEYS`` is a ConfigError.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc
    resolved = {s: dict(parser[s]) for s in parser.sections()}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, value = item.split("=", 1)
        if "." not in key:
            raise ConfigError(f"override key {key!r} must be section.key")
        section, name = key.split(".", 1)
        resolved.setdefault(section.strip(), {})[name.strip()] = value.strip()
    unknown = [
        f"{section}.{key}"
        for section, entries in resolved.items()
        for key in entries
        if key not in CONFIG_KEYS.get(section, ())
    ]
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    return resolved


def _get(resolved, section, key, default=None, cast=str):
    try:
        raw = resolved[section][key]
    except KeyError:
        if default is not None:
            return default
        raise ConfigError(f"missing config key [{section}] {key}")
    if cast is bool:
        lowered = raw.strip().lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"[{section}] {key}: expected a boolean, got {raw!r}")
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def _domain_from(resolved):
    return Rect(
        _get(resolved, "domain", "xmin", cast=float),
        _get(resolved, "domain", "xmax", cast=float),
        _get(resolved, "domain", "ymin", cast=float),
        _get(resolved, "domain", "ymax", cast=float),
    )


def _potential_from(resolved):
    kind = _get(resolved, "potential", "kind")
    if kind == "constant":
        return Potential.constant(_get(resolved, "potential", "value", cast=float))
    if kind == "harmonic":
        return Potential.harmonic()
    if kind == "checkerboard":
        return Potential.checkerboard(
            _get(resolved, "potential", "square_side", cast=float),
            low=_get(resolved, "potential", "low", default=0.0, cast=float),
            high=_get(resolved, "potential", "high", default=1.0, cast=float),
        )
    raise ConfigError(f"unknown potential kind {kind!r}")


def _flow_from(resolved):
    return FlowParams(
        tau=_get(resolved, "flow", "tau", default=0.5, cast=float),
        max_steps=_get(resolved, "flow", "max_steps", default=10000, cast=int),
    )


def _cache_dir_from(resolved, out_dir, use_cache):
    """Corrector cache directory: ``study.cache_dir``, else ``out_dir/correctors``.

    ``use_cache=False`` (``--no-cache``) resolves it to None.
    """
    if not use_cache:
        return None
    cache_dir = resolved.get("study", {}).get("cache_dir", "").strip()
    if not cache_dir and out_dir is not None:
        cache_dir = str(Path(out_dir) / "correctors")
    return cache_dir or None


def study_config_from(resolved, out_dir=None, use_cache=True):
    """Build a StudyConfig from a resolved configuration dict.

    ``use_cache=False`` resolves the corrector cache directory to None.
    An invalid value is a ConfigError.
    """
    with _config_values():
        H_text = _get(resolved, "study", "h_sequence")
        H_sequence = [float(tok) for tok in H_text.replace(",", " ").split()]
        cfg = StudyConfig(
            domain=_domain_from(resolved),
            potential=_potential_from(resolved),
            beta=_get(resolved, "study", "beta", cast=float),
            reference_cells=_get(resolved, "study", "reference_cells", cast=int),
            H_sequence=H_sequence,
            flow=_flow_from(resolved),
            baseline_coarse_fem=_get(resolved, "study", "baseline_coarse_fem", default=False, cast=bool),
            cache_dir=_cache_dir_from(resolved, out_dir, use_cache),
            saturation_check=_get(resolved, "study", "saturation_check", default=True, cast=bool),
        )
        cfg.validate()
    return cfg


def _peak_rss_mb():
    """Peak resident memory of this process so far, in MB (``ru_maxrss`` is
    in KB on Linux, in bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def _write_manifest(args, config_path, resolved, outputs, extra):
    """Write ``<out>/<command>_manifest.json``: the run's resolved
    configuration and outputs, its peak memory, and the command's ``extra``
    record."""
    manifest = {
        "tool": "gplod",
        "version": __version__,
        "command": args.command,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "config_path": str(config_path),
        "overrides": list(args.overrides),
        "resolved_config": resolved,
        "outputs": [str(o) for o in outputs],
        "peak_rss_mb": _peak_rss_mb(),
        **extra,
    }
    with open(Path(args.out) / f"{args.command}_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt12(value):
    return f"{value:.12g}"


def cmd_solve(args, resolved):
    with _config_values():
        domain = _domain_from(resolved)
        potential = _potential_from(resolved)
        flow = _flow_from(resolved)
        space_kind = _get(resolved, "solve", "space", default="fine_fem")
        cells = _get(resolved, "solve", "cells", cast=int)
        beta = _get(resolved, "solve", "beta", cast=float)
        if beta < 0:
            raise ConfigError("[solve] beta must be non-negative")
        if space_kind == "fine_fem":
            mesh = uniform_mesh(domain, cells)
        elif space_kind in ("lod", "coarse_fem"):
            coarse_cells = _get(resolved, "solve", "coarse_cells", cast=int)
            hierarchy = build_hierarchy(
                domain, coarse_cells, refinement_count(coarse_cells, cells)
            )
            mesh = hierarchy.fine
        else:
            raise ConfigError(f"unknown space {space_kind!r}")
        potential.check_alignment(mesh)

    hit = None  # the corrector-cache lookup of an LOD space
    fine_ops = assemble_operators(mesh, potential)
    if space_kind == "fine_fem":
        space = fine_space(fine_ops)
    elif space_kind == "coarse_fem":
        space = coarse_fem_space(hierarchy, fine_ops)
    else:
        cache_dir = _cache_dir_from(resolved, args.out, not args.no_cache)
        lod, hit = lod_space_cached(hierarchy, fine_ops, cache_dir=cache_dir)
        space = lod_discrete_space(lod, fine_ops)

    t0 = time.perf_counter()
    state = minimize(space, potential, beta, flow)
    wall = time.perf_counter() - t0
    print(f"space: {space_kind}, dofs: {space.n_dofs}")
    print(f"energy:     {_fmt12(state.energy)}")
    print(f"eigenvalue: {_fmt12(state.eigenvalue)}")
    if state.pre_steps:
        print(f"coarse-density steps: {state.pre_steps} ({state.pre_seconds:.2f}s)")
        print(f"coarse-density newton steps: {state.pre_newton_steps}")
    flow_s = wall - state.pre_seconds
    print(f"iterations: {state.steps_taken} ({flow_s:.2f}s), converged: {state.converged}")
    print(f"newton steps: {state.newton_steps}")
    print(f"stationarity residual: {state.residual / state.residual_scale:.2e} (relative)")

    outputs = []
    if args.dump_solution:
        sol_path = Path(args.dump_solution)
        full = fine_ops.expand(state.fine_coeffs)
        with open(sol_path, "w") as fh:
            for (x, y), v in zip(fine_ops.mesh.nodes, full):
                fh.write(f"{float(x)!r} {float(y)!r} {float(v)!r}\n")
        outputs.append(sol_path)
    if args.dump_mesh:
        export_mesh(fine_ops.mesh, args.dump_mesh)
        outputs.append(Path(args.dump_mesh))

    extra = {
        "cache": {"hits": int(hit is True), "misses": int(hit is False)},
        "results": {
            "energy": state.energy,
            "eigenvalue": state.eigenvalue,
            "iterations": state.steps_taken,
            "newton_steps": state.newton_steps,
            "inner_iterations": state.inner_iterations.tolist(),
            "flow_s": flow_s,
            "pre_iterations": state.pre_steps,
            "pre_newton_steps": state.pre_newton_steps,
            "pre_inner_iterations": state.pre_inner_iterations.tolist(),
            "pre_flow_s": state.pre_seconds,
            "converged": state.converged,
            "residual": state.residual,
            "residual_scale": state.residual_scale,
        },
    }
    if not state.converged:
        print(f"error: {state.message}", file=sys.stderr)
        return NUMERICAL_ERROR, outputs, extra
    return 0, outputs, extra


def _row_record(row):
    """A study row's H, step counts and stationarity residual."""
    return {
        "H": row.H,
        "steps": row.iterations,
        "newton_steps": row.newton_steps,
        "residual": row.residual,
        "residual_scale": row.residual_scale,
    }


def cmd_study(args, resolved):
    out_dir = Path(args.out)
    cfg = study_config_from(resolved, out_dir, use_cache=not args.no_cache)

    result = run_study(cfg, log=print)

    csv_path = out_dir / "study.csv"
    write_csv(result.rows, result.fitted_rates, csv_path)
    outputs = [csv_path]
    if result.baseline_rows:
        baseline_path = out_dir / "study_baseline.csv"
        write_csv(result.baseline_rows, result.baseline_rates, baseline_path)
        outputs.append(baseline_path)
    plot_path = out_dir / "study.gp"
    write_gnuplot(csv_path, plot_path, title=cfg.potential.descriptor())
    outputs.append(plot_path)

    rate_text = ", ".join(
        f"{col}={result.fitted_rates[col]:.3f}"
        if result.fitted_rates[col] is not None
        else f"{col}=n/a"
        for col in ("h1", "l2", "energy", "eigenvalue")
    )
    print(f"fitted rates: {rate_text}")

    extra = {
        "cache": {"hits": result.cache_hits, "misses": result.cache_misses},
        "workers": result.workers,
        "reference": {
            k: result.reference[k]
            for k in (
                "energy", "eigenvalue", "n_dofs", "steps", "newton_steps", "inner_iterations",
                "residual", "residual_scale",
            )
        },
        "rows": [_row_record(row) for row in result.rows],
        "baseline_rows": [_row_record(row) for row in result.baseline_rows],
        "invalid": result.invalid,
    }
    if result.invalid:
        print(f"error: {result.message}", file=sys.stderr)
        return NUMERICAL_ERROR, outputs, extra
    failures = [r for r in result.rows if r.failed]
    for row in failures:
        print(f"warning: row H={row.H:g} failed: {row.message}", file=sys.stderr)
    return (NUMERICAL_ERROR if len(failures) == len(result.rows) else 0), outputs, extra


def cmd_correctors(args, resolved):
    """Build or load the LOD space of the finest H of ``study.h_sequence``,
    derive each coarser H's from it (``nested_lod_space``) and cache every
    H's file, so a study or an LOD solve at any of these H finds it."""
    cfg = study_config_from(resolved, args.out, use_cache=not args.no_cache)

    mesh = uniform_mesh(cfg.domain, cfg.reference_cells)
    ops = assemble_operators(mesh, cfg.potential)
    finest = hit = None
    outputs = []
    records = []
    for H in sorted(cfg.H_sequence):
        hierarchy = cfg.hierarchy(H)
        t0 = time.perf_counter()
        if finest is None:
            finest, hit = lod_space_cached(hierarchy, ops, cache_dir=cfg.cache_dir)
            space, source = finest, "cache hit" if hit else "built"
        else:
            space, source = nested_lod_space(finest, hierarchy, ops.M), "derived"
        if cfg.cache_dir:
            outputs.append(cache_path(cfg.cache_dir, hierarchy, space.potential_descriptor))
            if source == "derived":
                save_basis(space, outputs[-1])
        wall = time.perf_counter() - t0
        records.append({"H": H, "source": source, "seconds": wall, "timings": space.timings})
        stages = ", ".join(
            f"{key[:-2]} {value:.2f}s" if key.endswith("_s") else f"{key} {value}"
            for key, value in space.timings.items()
        )
        m = hierarchy.coarse.n_interior
        print(f"H={H:g}: {m} correctors, {source} ({stages}), {wall:.2f}s total")
    if cfg.cache_dir:
        print(f"cache dir: {cfg.cache_dir} ({int(hit)} hits, {int(not hit)} misses)")

    extra = {"cache": {"hits": int(hit), "misses": int(not hit)}, "correctors": records}
    return 0, outputs, extra


def build_parser():
    parser = _ArgumentParser(
        prog="gplod",
        description="Gross-Pitaevskii ground states in LOD spaces",
    )
    parser.add_argument("--version", action="version", version=f"gplod {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="config file path or preset name")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--no-cache", action="store_true", help="disable the corrector cache")
        p.add_argument(
            "overrides",
            nargs="*",
            metavar="section.key=value",
            help="configuration overrides",
        )

    p_solve = sub.add_parser("solve", help="single ground-state computation")
    common(p_solve)
    p_solve.add_argument("--dump-solution", help="write fine-mesh nodal values 'x y value'")
    p_solve.add_argument("--dump-mesh", help="write the mesh as plain text")
    p_solve.set_defaults(func=cmd_solve)

    p_study = sub.add_parser("study", help="convergence-rate study")
    common(p_study)
    p_study.set_defaults(func=cmd_study)

    p_corr = sub.add_parser("correctors", help="build and cache LOD correctors")
    common(p_corr)
    p_corr.set_defaults(func=cmd_correctors)
    return parser


def main(argv=None):
    """Run one command: resolve and parse its configuration, call its
    ``cmd_*(args, resolved)``, which returns ``(exit_code, outputs, extra)``,
    and write its manifest (``_write_manifest``)."""
    args = build_parser().parse_args(argv)
    try:
        config_path = _resolve_config_path(args.config)
        resolved = parse_config(config_path.read_text(), args.overrides)
        Path(args.out).mkdir(parents=True, exist_ok=True)
        code, outputs, extra = args.func(args, resolved)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ArithmeticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    _write_manifest(args, config_path, resolved, outputs, extra)
    return code


if __name__ == "__main__":
    sys.exit(main())
