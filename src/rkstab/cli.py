"""Command-line front end for bounds, integration runs, and sweeps.

Subcommands: bounds, integrate, sweep, mesh-gen, validate.  Every run is
driven by a RunConfig that can come from a JSON file (--config), from
flags, or both; flags win over file values.  Every enumerated setting,
every mesh and diffusion spec string and every sweep value is checked
before any point runs: a spec must name a kind of MESH_SPECS or
DIFFUSION_SPECS and give only that kind's keys, each with a value of the
type of its default and, for a mesh, in the range mesh.check_mesh_spec
allows; each sweep value must make a config that passes the single-run
checks.

Exit codes: 0 on success (an unstable integration or an invalid mesh is
a finding, not a failure), 1 on internal numerical failure, 2 on config
errors, bad mesh input, and inadmissible diffusion or surrogate choices.
Failures emit a one-line JSON error record on stderr.

Outputs are plain JSON and CSV, written with fixed key order and 17
significant digits so that identical configurations with identical seeds
produce byte-identical files regardless of worker count.  With --workers
above 1, sweep computes its points in that many forked worker processes on
Linux (never more processes than points) and serially elsewhere; the rows
are merged in point order, so sweep.csv has the same bytes either way.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .assembly import (
    POLICY_KINDS,
    AssembledSystem,
    DiffusionField,
    NonSPDDiffusionError,
    SurrogateAxiomError,
    SurrogatePolicy,
    assemble_system,
    l2_project,
)
from .bounds import (
    BOUND_CSV_FIELDS,
    DEFAULT_SEED,
    BoundReport,
    compute_bound_report,
    csv_cell,
)
from .mesh import (
    DegenerateElementError,
    MeshFormatError,
    MeshSpec,
    MeshStructureError,
    SimplicialMesh,
    check_mesh_spec,
    generate_mesh,
    read_mesh,
    validate_mesh,
    write_mesh,
)
from .reference import ReferenceElement, build_reference_element
from .timestepping import (
    BOUND_SOURCES,
    NAMED_SCHEME_POLYS,
    BlowUpError,
    CertificateError,
    integrate,
    l2_growth_certificate,
    rk_scheme,
    scheme_from_tableau,
    stable_timestep,
    top_mode_initial_condition,
)


class ConfigError(ValueError):
    """Invalid run configuration (exit code 2)."""


# Errors the library raises on bad input once computation has started: an
# inadmissible surrogate, a non-SPD diffusion tensor, or a mesh whose
# elements collapse or whose structure the DOF numbering rejects.  They exit
# like a ConfigError.
INPUT_ERRORS = (
    ConfigError,
    SurrogateAxiomError,
    NonSPDDiffusionError,
    DegenerateElementError,
    MeshStructureError,
)


# Each spec family's grammar maps kind -> {key: default}; a key's type is
# its default's type.  The mesh keys take their defaults from MeshSpec.
MESH_SPEC_KEYS = {
    "uniform_interval": {"n"},
    "structured_triangular": {"nx", "ny", "pattern"},
    "stretched": {"nx", "ny", "ratio"},
    "random_perturbed": {"nx", "ny", "amplitude", "seed"},
}

MESH_SPECS = {
    kind: {key: getattr(MeshSpec, key) for key in sorted(keys)}
    for kind, keys in MESH_SPEC_KEYS.items()
}

DIFFUSION_SPECS = {
    "identity": {},
    "scalar": {"value": 1.0},
    "diag": {"k1": 1.0, "k2": 1.0},
    "rotated_anisotropic": {"angle": 0.0, "k1": 1.0, "k2": 1.0},
    "aligned": {},
}

SCHEME_NAMES = (*NAMED_SCHEME_POLYS, "generic")

INITIAL_KINDS = ("smooth", "top_mode", "random")

SWEEP_AXES = ("n", "m", "ratio", "policy")

BOUNDS_CSV_HEADER = ["dimension", "n_elements", *BOUND_CSV_FIELDS, "sandwich_satisfied"]


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one CLI invocation.

    mesh is either a generator spec ("kind:key=value,...") or the path of
    an existing mesh file.  tau, when set, overrides the stable-step
    derivation; bound_source picks the eigenvalue estimate backing the
    derived step.
    """

    mesh: str
    order: int = 1
    diffusion: str = "identity"
    policy: str = "consistent"
    scheme: str = "explicit_euler"
    bound_source: str = "diag_ratio"
    tau: float | None = None
    steps: int = 100
    out: str = "."
    seed: int = DEFAULT_SEED
    dof_cap: int = 5000
    workers: int = 1
    initial: str = "smooth"
    tableau: dict | None = None
    sweep_axis: str | None = None
    sweep_values: tuple | None = None


def _parse_scalar(token: str):
    token = token.strip()
    for convert in (int, float):
        try:
            return convert(token)
        except ValueError:
            pass
    return token


_VALUE_TYPES = {int: "an integer", float: "a finite number", str: "a string"}


def parse_spec(text: str, grammar: dict, noun: str) -> tuple[str, dict]:
    """Split "kind:key=value,key=value" into its kind and parameter dict.

    The kind must be one of grammar's and each key one of that kind's,
    given once.  A value must be of the type of the key's default: an int
    key takes an int, a float key a finite int or float, and a str key a
    str.  Anything else raises ConfigError.  The dict holds only the keys
    the text gives.
    """
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in grammar:
        raise ConfigError(f"unknown {noun} kind {kind!r}; expected one of {', '.join(grammar)}")
    defaults = grammar[kind]
    params: dict = {}
    for chunk in rest.split(",") if rest.strip() else ():
        key, eq, token = (part.strip() for part in chunk.partition("="))
        if not eq or key not in defaults or key in params:
            raise ConfigError(f"{noun} kind {kind!r} takes each of {sorted(defaults)} at most "
                              f"once, as key=value; got {chunk!r} in {text!r}")
        params[key] = value = _parse_scalar(token)
        expected = type(defaults[key])
        if not (_is_finite(value) if expected is float else _is_number(value, expected)):
            raise ConfigError(f"{noun} key {key!r} takes {_VALUE_TYPES[expected]}, "
                              f"got {token!r} in {text!r}")
    return kind, params


def _format_spec(kind: str, params: dict) -> str:
    body = ",".join(f"{key}={params[key]}" for key in sorted(params))
    return f"{kind}:{body}"


def _mesh_is_file(mesh: str) -> bool:
    return os.path.isfile(mesh)


def _mesh_spec(config: RunConfig) -> MeshSpec:
    """The mesh spec of the config, its types and ranges checked."""
    kind, params = parse_spec(config.mesh, MESH_SPECS, "mesh")
    spec = MeshSpec(kind=kind, **params)
    try:
        check_mesh_spec(spec)
    except ValueError as exc:
        raise ConfigError(f"bad mesh spec {config.mesh!r}: {exc}") from exc
    return spec


def build_mesh(config: RunConfig) -> SimplicialMesh:
    if _mesh_is_file(config.mesh):
        try:
            return read_mesh(config.mesh)
        except (MeshFormatError, MeshStructureError) as exc:
            raise ConfigError(f"bad mesh file {config.mesh!r}: {exc}") from exc
    return generate_mesh(_mesh_spec(config))


def build_diffusion(config: RunConfig, mesh: SimplicialMesh) -> DiffusionField:
    kind, params = parse_spec(config.diffusion, DIFFUSION_SPECS, "diffusion")
    d = mesh.dimension
    if d == 1 and (kind == "rotated_anisotropic" or "k2" in params):
        raise ConfigError(f"diffusion {config.diffusion!r} needs a 2D mesh")
    values = {**DIFFUSION_SPECS[kind], **params}
    if kind == "scalar":
        return DiffusionField.constant(values["value"], d=d)
    if kind == "diag":
        return DiffusionField.constant(np.diag([values["k1"], values["k2"]][:d]))
    if kind == "rotated_anisotropic":
        return DiffusionField.rotated_anisotropic(values["angle"], (values["k1"], values["k2"]))
    if kind == "aligned":
        spec = None if _mesh_is_file(config.mesh) else _mesh_spec(config)
        if spec is None or spec.kind != "stretched":
            raise ConfigError("aligned diffusion requires a stretched mesh spec")
        return DiffusionField.constant(np.diag([1.0, spec.ratio**-2]))
    return DiffusionField.constant(1.0, d=d)


def _build_scheme(config: RunConfig):
    if config.scheme == "generic":
        tableau = config.tableau
        if not isinstance(tableau, dict) or "a" not in tableau or "b" not in tableau:
            raise ConfigError(
                'scheme "generic" requires a tableau config entry {"a": [[...]], "b": [...]}'
            )
        try:
            a, b = (np.asarray(tableau[key], dtype=object) for key in "ab")
            if not all(map(_is_finite, [*a.ravel(), *b.ravel()])):
                raise ValueError("every entry of a and b must be a finite number")
            return scheme_from_tableau(a, b)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad tableau: {exc}") from exc
    return rk_scheme(config.scheme)


def _is_number(value, types=(int, float)) -> bool:
    """A config value of the given types; JSON true and false are neither int nor float."""
    return isinstance(value, types) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """An int, or a float that is neither infinite nor NaN."""
    return _is_number(value) and math.isfinite(value)


def validate_config(config: RunConfig, command: str) -> None:
    """Check every enumeration and range before any computation runs."""
    if not isinstance(config.mesh, str) or not config.mesh.strip():
        raise ConfigError("mesh spec or mesh file path is required")
    if not _is_number(config.order, int) or config.order < 1:
        raise ConfigError(f"element order must be a positive integer, got {config.order!r}")
    if config.policy not in POLICY_KINDS:
        raise ConfigError(
            f"unknown policy {config.policy!r}; expected one of {', '.join(POLICY_KINDS)}"
        )
    if config.scheme not in SCHEME_NAMES:
        raise ConfigError(
            f"unknown scheme {config.scheme!r}; expected one of {', '.join(SCHEME_NAMES)}"
        )
    if config.scheme == "generic":
        _build_scheme(config)
    if config.bound_source not in BOUND_SOURCES:
        raise ConfigError(
            f"unknown bound source {config.bound_source!r}; "
            f"expected one of {', '.join(BOUND_SOURCES)}"
        )
    if config.tau is not None and not (_is_finite(config.tau) and config.tau > 0):
        raise ConfigError(f"tau override must be a finite positive number, got {config.tau!r}")
    if not _is_number(config.steps, int) or config.steps < 0:
        raise ConfigError(f"steps must be a nonnegative integer, got {config.steps!r}")
    if not _is_number(config.seed, int):
        raise ConfigError(f"seed must be an integer, got {config.seed!r}")
    if not _is_number(config.dof_cap, int) or config.dof_cap < 1:
        raise ConfigError(f"dof cap must be a positive integer, got {config.dof_cap!r}")
    if not _is_number(config.workers, int) or config.workers < 1:
        raise ConfigError(f"workers must be a positive integer, got {config.workers!r}")
    if config.initial not in INITIAL_KINDS:
        raise ConfigError(
            f"unknown initial condition {config.initial!r}; "
            f"expected one of {', '.join(INITIAL_KINDS)}"
        )
    if not _mesh_is_file(config.mesh):
        _mesh_spec(config)
    for name in ("diffusion", "out"):
        if not isinstance(getattr(config, name), str):
            raise ConfigError(f"{name} must be a string, got {getattr(config, name)!r}")
    parse_spec(config.diffusion, DIFFUSION_SPECS, "diffusion")
    if command == "sweep":
        if config.sweep_axis not in SWEEP_AXES:
            raise ConfigError(
                f"sweep axis must be one of {', '.join(SWEEP_AXES)}, "
                f"got {config.sweep_axis!r}"
            )
        if not isinstance(config.sweep_values, (tuple, list)) or not config.sweep_values:
            raise ConfigError(
                f"sweep requires a nonempty list of sweep values, got {config.sweep_values!r}"
            )
        if config.sweep_axis in ("n", "m", "ratio") and _mesh_is_file(config.mesh):
            raise ConfigError(
                f"sweep axis {config.sweep_axis!r} requires a mesh spec, not a mesh file"
            )
        for value in config.sweep_values:
            validate_config(_sweep_point_config(config, value), "bounds")
    if command == "mesh-gen" and _mesh_is_file(config.mesh):
        raise ConfigError("mesh-gen requires a mesh spec, not an existing mesh file")


def _sandwich_satisfied(report: BoundReport) -> bool | None:
    lam = report.lambda_max_exact
    if lam is None:
        return None
    slack = 1e-9
    return (
        report.lower_diag_ratio <= lam * (1.0 + slack)
        and lam <= report.upper_diag_ratio * (1.0 + slack)
    )


def _build_problem(
    config: RunConfig,
) -> tuple[SimplicialMesh, ReferenceElement, DiffusionField, SurrogatePolicy]:
    """The mesh, reference element, diffusion field and surrogate policy of a run."""
    mesh = build_mesh(config)
    elem = build_reference_element(mesh.dimension, config.order)
    return mesh, elem, build_diffusion(config, mesh), SurrogatePolicy(config.policy)


def _bounds_record(config: RunConfig) -> dict:
    """The bound report of one run as one record, keyed by BOUNDS_CSV_HEADER.

    bounds.json holds the record; each bounds.csv and sweep.csv row is its
    values, formatted by csv_cell.
    """
    mesh, elem, diffusion, policy = _build_problem(config)
    report = compute_bound_report(
        mesh, elem, diffusion, policy, dof_cap=config.dof_cap, seed=config.seed
    )
    values = (mesh.dimension, mesh.n_elements, *report.to_dict().values(),
              _sandwich_satisfied(report))
    return dict(zip(BOUNDS_CSV_HEADER, values, strict=True))

def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_bounds(config: RunConfig) -> dict:
    record = _bounds_record(config)
    os.makedirs(config.out, exist_ok=True)
    json_path = os.path.join(config.out, "bounds.json")
    csv_path = os.path.join(config.out, "bounds.csv")
    _write_json(json_path, record)
    with open(csv_path, "w") as handle:
        handle.write(",".join(BOUNDS_CSV_HEADER) + "\n")
        handle.write(",".join(map(csv_cell, record.values())) + "\n")
    return {
        "command": "bounds",
        "bounds_json": json_path,
        "bounds_csv": csv_path,
        "n_dofs": record["n_dofs"],
        "sandwich_satisfied": record["sandwich_satisfied"],
    }


def _initial_vector(
    config: RunConfig,
    mesh: SimplicialMesh,
    elem,
    system: AssembledSystem,
) -> np.ndarray:
    if config.initial == "top_mode":
        return top_mode_initial_condition(system, seed=config.seed)
    if config.initial == "random":
        rng = np.random.default_rng(config.seed)
        return rng.standard_normal(system.n_dofs)
    if mesh.dimension == 1:
        func = lambda x: math.sin(math.pi * x[0])
    else:
        func = lambda x: math.sin(math.pi * x[0]) * math.sin(math.pi * x[1])
    coeffs = l2_project(mesh, elem, func, system.numbering, system.geometry)
    return coeffs[system.dof_map]


def cmd_integrate(config: RunConfig) -> dict:
    mesh, elem, diffusion, policy = _build_problem(config)
    system = assemble_system(mesh, elem, diffusion, policy)
    scheme = _build_scheme(config)

    report = None
    if config.tau is not None:
        tau = config.tau
        tau_source = "override"
    else:
        report = compute_bound_report(
            mesh,
            elem,
            diffusion,
            policy,
            dof_cap=config.dof_cap,
            seed=config.seed,
            system=system,
        )
        try:
            tau = stable_timestep(scheme, config.bound_source, report)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        tau_source = config.bound_source

    u0 = _initial_vector(config, mesh, elem, system)

    summary: dict = {
        "command": "integrate",
        "scheme": scheme.name,
        "tau": tau,
        "tau_source": tau_source,
        "n_steps_requested": config.steps,
        "n_dofs": system.n_dofs,
        "seed": config.seed,
        "lambda_max_exact": None if report is None else report.lambda_max_exact,
        "growth_bound": math.sqrt(elem.condition_number * system.kappa_surrogate),
        "growth_ratio": None,
        "certificate": None,
        "certificate_step": None,
        "max_energy_ratio": None,
        "blow_up_step": None,
    }

    try:
        trace = integrate(system, scheme, tau, config.steps, u0)
    except BlowUpError as err:
        summary["status"] = "unstable"
        summary["blow_up_step"] = err.step
        summary["n_steps_completed"] = max(err.step - 1, 0)
        trace = err.trace
    else:
        summary["status"] = "no-op" if config.steps == 0 else "stable"
        summary["n_steps_completed"] = config.steps
        energy = trace.energy_norms
        if energy[0] > 0:
            summary["max_energy_ratio"] = float(np.max(energy) / energy[0])
        try:
            summary["growth_ratio"] = l2_growth_certificate(trace, system, elem)
            summary["certificate"] = "ok"
        except CertificateError as err:
            summary["growth_ratio"] = err.ratio
            summary["certificate"] = "violated"
            summary["certificate_step"] = err.step

    os.makedirs(config.out, exist_ok=True)
    trace_path = os.path.join(config.out, "trace.csv")
    summary_path = os.path.join(config.out, "summary.json")
    trace.write_csv(trace_path)
    _write_json(summary_path, summary)
    return dict(summary, trace_csv=trace_path, summary_json=summary_path)


def _sweep_point_config(config: RunConfig, value) -> RunConfig:
    axis = config.sweep_axis
    if axis == "m":
        return dataclasses.replace(config, order=value)
    if axis == "policy":
        return dataclasses.replace(config, policy=value)
    if _parse_scalar(str(value)) != value:  # a JSON "8" or [8] for axis n, say
        raise ConfigError(f"sweep value {value!r} does not read back from a mesh spec")
    kind, params = parse_spec(config.mesh, MESH_SPECS, "mesh")
    if axis == "ratio":
        params["ratio"] = value
    elif kind == "uniform_interval":
        params["n"] = value
    else:
        params["nx"] = params["ny"] = value
    return dataclasses.replace(config, mesh=_format_spec(kind, params))


def _run_point(config: RunConfig, index: int) -> str:
    """The sweep.csv line of sweep point number index."""
    value = config.sweep_values[index]
    record = _bounds_record(_sweep_point_config(config, value))
    return ",".join([config.sweep_axis, str(value), *map(csv_cell, record.values())]) + "\n"


def cmd_sweep(config: RunConfig) -> dict:
    n_points = len(config.sweep_values)
    workers = min(config.workers, n_points)
    if workers > 1 and sys.platform == "linux":
        # Each point is interpreter-bound work (mesh, assembly, a Lanczos
        # loop in Python), so only processes run points in parallel.  A forked
        # worker starts with numpy and scipy already imported; the CLI has
        # no threads of its own to fork.  map keeps the point order.
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            lines = list(pool.map(_run_point, [config] * n_points, range(n_points)))
    else:
        lines = [_run_point(config, i) for i in range(n_points)]

    os.makedirs(config.out, exist_ok=True)
    sweep_path = os.path.join(config.out, "sweep.csv")
    with open(sweep_path, "w") as handle:
        handle.write(",".join(["axis", "value", *BOUNDS_CSV_HEADER]) + "\n")
        for line in lines:
            handle.write(line)
    return {
        "command": "sweep",
        "sweep_csv": sweep_path,
        "axis": config.sweep_axis,
        "n_points": n_points,
    }


def cmd_mesh_gen(config: RunConfig) -> dict:
    mesh = build_mesh(config)
    os.makedirs(config.out, exist_ok=True)
    path = os.path.join(config.out, "mesh.txt")
    write_mesh(mesh, path)
    return {
        "command": "mesh-gen",
        "mesh_file": path,
        "dimension": mesh.dimension,
        "n_vertices": mesh.n_vertices,
        "n_elements": mesh.n_elements,
    }


def cmd_validate(config: RunConfig) -> dict:
    mesh = build_mesh(config)
    problems = validate_mesh(mesh)
    return {
        "command": "validate",
        "status": "ok" if not problems else "invalid",
        "n_problems": len(problems),
        "problems": problems,
    }


def _add_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    parser.add_argument("--mesh", help="mesh spec 'kind:key=value,...' or mesh file path")
    parser.add_argument("--order", type=int, help="element order m")
    parser.add_argument("--diffusion", help="diffusion spec, e.g. rotated_anisotropic:angle=0.5,k1=1,k2=100")
    parser.add_argument("--policy", help="surrogate mass policy: " + ", ".join(POLICY_KINDS))
    parser.add_argument("--scheme", help="time scheme: " + ", ".join(SCHEME_NAMES))
    parser.add_argument("--tau", type=float, help="time step override")
    parser.add_argument("--steps", type=int, help="number of time steps")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="rng seed")
    parser.add_argument("--dof-cap", type=int, dest="dof_cap",
                        help="skip exact eigenvalues above this DOF count")
    parser.add_argument("--workers", type=int, help="sweep worker processes")
    parser.add_argument("--bound-source", dest="bound_source",
                        help="eigenvalue estimate for the stable step: " + ", ".join(BOUND_SOURCES))
    parser.add_argument("--initial", help="initial condition: " + ", ".join(INITIAL_KINDS))
    parser.add_argument("--sweep-axis", dest="sweep_axis",
                        help="sweep axis: " + ", ".join(SWEEP_AXES))
    parser.add_argument("--sweep-values", dest="sweep_values",
                        help="comma-separated sweep values")


def load_config(args: argparse.Namespace) -> RunConfig:
    known = [f.name for f in dataclasses.fields(RunConfig)]
    merged: dict = {}
    if args.config is not None:
        try:
            with open(args.config) as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(data) - set(known)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(data)
    for key in known:  # a field without a flag (tableau) reads as None
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if isinstance(merged.get("sweep_values"), str):
        merged["sweep_values"] = tuple(
            _parse_scalar(tok) for tok in merged["sweep_values"].split(",") if tok.strip()
        )
    elif isinstance(merged.get("sweep_values"), list):
        merged["sweep_values"] = tuple(merged["sweep_values"])
    if "mesh" not in merged:
        raise ConfigError("mesh spec or mesh file path is required")
    try:
        return RunConfig(**merged)
    except TypeError as exc:
        raise ConfigError(f"bad config: {exc}") from exc


COMMANDS = {
    "bounds": cmd_bounds,
    "integrate": cmd_integrate,
    "sweep": cmd_sweep,
    "mesh-gen": cmd_mesh_gen,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rkstab",
        description="Spectral bounds and stable explicit RK steps for FEM diffusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_flags(sub.add_parser(name))
    args = parser.parse_args(argv)

    try:
        config = load_config(args)
        validate_config(config, args.command)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2

    try:
        result = COMMANDS[args.command](config)
    except INPUT_ERRORS as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:
        print(
            json.dumps(
                {"error": "internal", "message": f"{type(exc).__name__}: {exc}"}
            ),
            file=sys.stderr,
        )
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
