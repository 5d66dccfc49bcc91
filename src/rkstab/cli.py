"""Command-line front end for bounds, integration runs, and sweeps.

Subcommands: bounds, integrate, sweep, mesh-gen, validate.  Settings can
come from a JSON file (--config), from flags, or both; flags win over file
values.  load_config resolves them once into a RunConfig: the mesh spec
becomes a checked MeshSpec, or a mesh file is read once, and the diffusion
spec becomes its kind and values.  Every check that needs no assembly runs
there, before any computation, and for every command alike: each given
setting's type, choices and range; a spec's kind, keys and value types
(MESH_SPECS, DIFFUSION_SPECS) and the ranges mesh.check_mesh_spec allows;
a diffusion the mesh's dimension or kind cannot take, or that is not SPD;
each sweep value; and the admissibility of the surrogate policy at every
order that will run.  Commands and sweep points then only read those
values.  Checks that need the built mesh (every problem validate reports,
and no free DOF) run when a point builds it, and fail on the first.

Exit codes: 0 on success (an unstable integration or an invalid mesh is
a finding, not a failure), 1 on internal numerical failure, 2 on config
errors, bad mesh input, and inadmissible diffusion or surrogate choices.
Failures emit a one-line JSON error record on stderr, and warnings one each.

Outputs are plain JSON and CSV.  A report's keys and columns are the
fields of bounds.BoundReport, and bounds.csv_cell formats every CSV cell.
Keys come in a fixed order and floats with 17 significant digits, so that
identical configurations with identical seeds produce byte-identical files
regardless of worker count.  With --workers above 1, sweep computes its
points in that many forked worker processes on Linux (never more
processes than points) and serially elsewhere; the rows are merged in
point order, so sweep.csv has the same bytes either way.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import multiprocessing
import os
import sys
import warnings
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
    surrogate_reference_matrix,
)
from .bounds import BOUND_CSV_FIELDS, DEFAULT_DOF_CAP, DEFAULT_SEED, BoundReport, compute_bound_report
from .mesh import (
    MESH_KINDS,
    DegenerateElementError,
    MeshFormatError,
    MeshSpec,
    MeshStructureError,
    SimplicialMesh,
    check_mesh_spec,
    free_dofs,
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


# Errors the library raises on bad input: an inadmissible surrogate, a
# non-SPD diffusion tensor, or a mesh whose elements collapse or whose
# structure the DOF numbering rejects.  They exit like a ConfigError.
INPUT_ERRORS = (
    ConfigError,
    SurrogateAxiomError,
    NonSPDDiffusionError,
    DegenerateElementError,
    MeshStructureError,
)


# Each spec family's grammar maps kind -> {key: default}; a key's type is
# its default's type.  The mesh keys are the MeshSpec fields each kind's
# generator reads, with MeshSpec's defaults.
MESH_SPECS = {
    kind: {key: getattr(MeshSpec, key) for key in keys}
    for kind, (_, _, keys) in MESH_KINDS.items()
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


def _setting(default, help, type=str, choices=None, low=None):
    """A RunConfig field that has a flag.

    Its metadata holds the flag's help text and type, and the choices or
    the lower bound a value must meet: an int at least low, a float above it.
    """
    return dataclasses.field(
        default=default, metadata={"help": help, "type": type, "choices": choices, "low": low}
    )


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one CLI invocation (see load_config).

    mesh is a checked MeshSpec, or the SimplicialMesh read from a mesh
    file; diffusion is a DIFFUSION_SPECS kind and its values, defaults
    filled in; their field defaults are the texts a flag would give, which
    load_config parses.  tau, when set, overrides the stable-step
    derivation; bound_source picks the eigenvalue estimate backing the
    derived step.
    """

    mesh: MeshSpec | SimplicialMesh = _setting(
        dataclasses.MISSING, "mesh spec 'kind:key=value,...' or mesh file path")
    order: int = _setting(1, "element order m", int, low=1)
    diffusion: tuple[str, dict] = _setting(
        "identity", "diffusion spec, e.g. rotated_anisotropic:angle=0.5,k1=1,k2=100")
    policy: str = _setting("consistent", "surrogate mass policy", choices=POLICY_KINDS)
    scheme: str = _setting("explicit_euler", "time scheme", choices=SCHEME_NAMES)
    tau: float | None = _setting(None, "time step override", float, low=0)
    steps: int = _setting(100, "number of time steps", int, low=0)
    out: str = _setting(".", "output directory")
    seed: int = _setting(DEFAULT_SEED, "rng seed", int, low=0)
    dof_cap: int = _setting(DEFAULT_DOF_CAP, "skip exact eigenvalues above this DOF count", int, low=1)
    workers: int = _setting(1, "sweep worker processes", int, low=1)
    bound_source: str = _setting(  # a tuple, which a JSON list is not in, where a dict raises
        "diag_ratio", "eigenvalue estimate for the stable step", choices=tuple(BOUND_SOURCES))
    initial: str = _setting("smooth", "initial condition", choices=INITIAL_KINDS)
    tableau: dict | None = None  # no flag; read only by the generic scheme
    sweep_axis: str | None = _setting(None, "sweep axis", choices=SWEEP_AXES)
    sweep_values: tuple | None = _setting(None, "comma-separated sweep values", tuple)


_SETTINGS = {f.name: f for f in dataclasses.fields(RunConfig) if f.metadata}


def _check_setting(name: str, value) -> None:
    """Raise ConfigError unless value meets the type, choices and bound of setting name."""
    meta = _SETTINGS[name].metadata
    kind, choices, low = meta["type"], meta["choices"], meta["low"]
    if choices is not None:
        ok, expected = value in choices, "one of " + ", ".join(choices)
    elif kind is int:
        ok = _is_number(value, int) and (low is None or value >= low)
        expected = "an integer" + ("" if low is None else f" >= {low}")
    elif kind is float:
        ok, expected = _is_finite(value) and value > low, f"a finite number > {low}"
    elif kind is tuple:
        ok, expected = isinstance(value, tuple) and len(value) > 0, "a nonempty list"
    else:
        ok, expected = isinstance(value, str), "a string"
    if not ok:
        raise ConfigError(f"{name.replace('_', ' ')} must be {expected}, got {value!r}")


def _parse_scalar(token: str):
    token = token.strip()
    for convert in (int, float):
        try:
            return convert(token)
        except ValueError:
            pass
    return token


_VALUE_TYPES = {int: "an integer", float: "a finite number", str: "a string"}


def _check_spec_value(noun: str, key: str, value, default, where: str) -> None:
    """Raise ConfigError unless value has the type of the spec key's default.

    An int key takes an int, a float key a finite int or float, and a str
    key a str.
    """
    expected = type(default)
    if not (_is_finite(value) if expected is float else _is_number(value, expected)):
        raise ConfigError(f"{noun} key {key!r} takes {_VALUE_TYPES[expected]}, "
                          f"got {value!r} in {where}")


def parse_spec(text: str, grammar: dict, noun: str) -> tuple[str, dict]:
    """Split "kind:key=value,key=value" into its kind and parameter dict.

    The kind must be one of grammar's and each key one of that kind's,
    given once, with a value of the type of the key's default (see
    _check_spec_value).  Anything else raises ConfigError.  The dict holds
    only the keys the text gives.
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
        params[key] = _parse_scalar(token)
        _check_spec_value(noun, key, params[key], defaults[key], repr(text))
    return kind, params


def _checked_mesh_spec(spec: MeshSpec) -> MeshSpec:
    """The spec, if the mesh generators accept its ranges; ConfigError otherwise."""
    try:
        check_mesh_spec(spec)
    except ValueError as exc:
        raise ConfigError(f"bad {spec.kind} mesh spec: {exc}") from exc
    return spec


def build_mesh(config: RunConfig) -> SimplicialMesh:
    """The run's mesh: the one read from its file, or generated from its spec."""
    mesh = config.mesh
    return mesh if isinstance(mesh, SimplicialMesh) else generate_mesh(mesh)


def build_diffusion(config: RunConfig, d: int) -> DiffusionField:
    """The run's constant diffusion tensor on a mesh of dimension d."""
    kind, values = config.diffusion
    if kind == "scalar":
        return DiffusionField.constant(values["value"], d=d)
    if kind == "diag":
        return DiffusionField.constant(np.diag([values["k1"], values["k2"]][:d]))
    if kind == "rotated_anisotropic":
        return DiffusionField.rotated_anisotropic(values["angle"], (values["k1"], values["k2"]))
    if kind == "aligned":
        return DiffusionField.constant(np.diag([1.0, config.mesh.ratio**-2]))
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


def _build_problem(
    config: RunConfig,
) -> tuple[SimplicialMesh, ReferenceElement, DiffusionField, SurrogatePolicy]:
    """The mesh, reference element, diffusion field and surrogate policy of a run."""
    mesh = build_mesh(config)
    elem = build_reference_element(mesh.dimension, config.order)
    return mesh, elem, build_diffusion(config, mesh.dimension), SurrogatePolicy(config.policy)


def _bounds_record(config: RunConfig) -> BoundReport:
    """The bound report of one run.

    bounds.json holds its to_dict(); each bounds.csv and sweep.csv row is
    its csv_row().
    """
    mesh, elem, diffusion, policy = _build_problem(config)
    return compute_bound_report(mesh, elem, diffusion, policy, dof_cap=config.dof_cap)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_bounds(config: RunConfig) -> dict:
    report = _bounds_record(config)
    os.makedirs(config.out, exist_ok=True)
    json_path = os.path.join(config.out, "bounds.json")
    csv_path = os.path.join(config.out, "bounds.csv")
    _write_json(json_path, report.to_dict())
    with open(csv_path, "w") as handle:
        handle.write(",".join(BOUND_CSV_FIELDS) + "\n")
        handle.write(",".join(report.csv_row()) + "\n")
    return {
        "command": "bounds",
        "bounds_json": json_path,
        "bounds_csv": csv_path,
        "n_dofs": report.n_dofs,
        "sandwich_satisfied": report.sandwich_satisfied,
    }


def _initial_vector(config: RunConfig, system: AssembledSystem) -> np.ndarray:
    if config.initial == "top_mode":
        return top_mode_initial_condition(system, seed=config.seed)
    if config.initial == "random":
        rng = np.random.default_rng(config.seed)
        return rng.standard_normal(system.n_dofs)
    if system.mesh.dimension == 1:
        func = lambda x: math.sin(math.pi * x[0])
    else:
        func = lambda x: math.sin(math.pi * x[0]) * math.sin(math.pi * x[1])
    coeffs = l2_project(system.mesh, system.elem, func)
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
            mesh, elem, diffusion, policy, dof_cap=config.dof_cap, system=system
        )
        try:
            tau = stable_timestep(scheme, config.bound_source, report)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        tau_source = config.bound_source

    u0 = _initial_vector(config, system)

    summary: dict = {
        "command": "integrate",
        "scheme": scheme.name,
        "tau": tau,
        "tau_source": tau_source,
        "n_steps_requested": config.steps,
        "n_dofs": system.n_dofs,
        "seed": config.seed,
        "lambda_max_exact": None if report is None else report.lambda_max_exact,
        "growth_bound": system.l2_growth_bound,
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
    """The config of one sweep point.

    value replaces the order (axis m), the policy, the element counts
    (axis n) or the ratio of the mesh spec, and is checked like the setting
    or spec key it replaces.
    """
    axis = config.sweep_axis
    if axis in ("m", "policy"):
        name = "order" if axis == "m" else axis
        _check_setting(name, value)
        return dataclasses.replace(config, **{name: value})
    spec = config.mesh
    if not isinstance(spec, MeshSpec):
        raise ConfigError(f"sweep axis {axis!r} requires a mesh spec, not a mesh file")
    grammar = MESH_SPECS[spec.kind]
    keys = [key for key in (("ratio",) if axis == "ratio" else ("n", "nx", "ny")) if key in grammar]
    if not keys:
        raise ConfigError(f"sweep axis {axis!r} does not apply to a {spec.kind} mesh")
    _check_spec_value("mesh", keys[0], value, grammar[keys[0]], "the sweep values")
    point = dataclasses.replace(spec, **dict.fromkeys(keys, value))
    return dataclasses.replace(config, mesh=_checked_mesh_spec(point))


def _run_point(config: RunConfig, index: int) -> str:
    """The sweep.csv line of sweep point number index."""
    value = config.sweep_values[index]
    report = _bounds_record(_sweep_point_config(config, value))
    return ",".join([config.sweep_axis, str(value), *report.csv_row()]) + "\n"


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
        handle.write(",".join(["axis", "value", *BOUND_CSV_FIELDS]) + "\n")
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
    if not problems:  # a sound mesh can still leave no DOF free at the run's order
        try:
            free_dofs(mesh.numbering(build_reference_element(mesh.dimension, config.order)),
                      config.order)
        except MeshStructureError as exc:
            problems.append(str(exc))
    return {
        "command": "validate",
        "status": "ok" if not problems else "invalid",
        "n_problems": len(problems),
        "problems": problems,
    }


def _add_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    for name, field in _SETTINGS.items():
        meta = field.metadata
        choices = meta["choices"]
        parser.add_argument(
            "--" + name.replace("_", "-"),
            type=meta["type"] if meta["type"] in (int, float) else None,
            help=meta["help"] + (": " + ", ".join(choices) if choices else ""),
        )


def load_config(args: argparse.Namespace) -> RunConfig:
    """Resolve the config file and the flags of one run into a RunConfig.

    Every check that needs no assembly runs here, once, before any
    computation (see the module docstring); the first that fails raises
    ConfigError, or SurrogateAxiomError for an inadmissible policy.
    """
    command = args.command
    settings = {f.name: f.default for f in dataclasses.fields(RunConfig)}
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
        unknown = set(data) - set(settings)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        settings.update(data)
    for name in _SETTINGS:
        if getattr(args, name) is not None:
            settings[name] = getattr(args, name)
    if settings["mesh"] is dataclasses.MISSING:
        raise ConfigError("mesh spec or mesh file path is required")
    values = settings["sweep_values"]
    if isinstance(values, str):
        values = [_parse_scalar(tok) for tok in values.split(",") if tok.strip()]
    if isinstance(values, list):
        settings["sweep_values"] = tuple(values)
    for name in _SETTINGS:
        # no tau: derive the step; no sweep setting: run no sweep, unless asked to
        optional = name == "tau" or (name.startswith("sweep_") and command != "sweep")
        if settings[name] is not None or not optional:
            _check_setting(name, settings[name])

    text = settings["mesh"]
    if os.path.isfile(text):
        if command == "mesh-gen":
            raise ConfigError("mesh-gen requires a mesh spec, not an existing mesh file")
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", UserWarning)
                mesh = read_mesh(text)
        except (MeshFormatError, MeshStructureError) as exc:
            raise ConfigError(f"bad mesh file {text!r}: {exc}") from exc
        for warning in caught:  # one JSON line each, like the error record
            print(json.dumps({"warning": str(warning.message)}), file=sys.stderr)
        dimension = mesh.dimension
    else:
        kind, params = parse_spec(text, MESH_SPECS, "mesh")
        mesh = _checked_mesh_spec(MeshSpec(kind, **params))
        dimension = MESH_KINDS[kind][0]
    kind, params = parse_spec(settings["diffusion"], DIFFUSION_SPECS, "diffusion")
    diffusion = (kind, {**DIFFUSION_SPECS[kind], **params})
    config = RunConfig(**dict(settings, mesh=mesh, diffusion=diffusion))
    _build_scheme(config)  # checks a generic tableau
    if dimension == 1 and (kind == "rotated_anisotropic" or "k2" in params):
        raise ConfigError(f"diffusion {settings['diffusion']!r} needs a 2D mesh")
    if kind == "aligned" and not (isinstance(mesh, MeshSpec) and mesh.kind == "stretched"):
        raise ConfigError("aligned diffusion requires a stretched mesh spec")
    points = [config]
    if command == "sweep":
        points = [_sweep_point_config(config, value) for value in config.sweep_values]
    for order, policy in dict.fromkeys((point.order, point.policy) for point in points):
        surrogate_reference_matrix(build_reference_element(dimension, order),
                                   SurrogatePolicy(policy))
    # The diffusion is constant and SPD-checked as it is built: build it once,
    # or once per ratio for an aligned tensor.
    by_ratio = {point.mesh.ratio if kind == "aligned" else None: point for point in points}
    for point in by_ratio.values():
        build_diffusion(point, dimension)
    return config


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
        result = COMMANDS[args.command](load_config(args))
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
