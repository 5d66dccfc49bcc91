"""In-memory spans around the public calls into each rkstab layer.

A Tracer wraps the public functions listed in TARGETS while it is active:
every binding of the original function object inside the rkstab package is
replaced by a wrapper that records (name, start, end, parent, workload,
request, tag, thread) and calls the original unchanged.  Because library
modules import each other's functions by name, a call such as
``geometric_bound -> build_affine_maps`` is recorded too, so the trace shows
how often each layer really runs.  Nothing is patched while no tracer is
active, so untraced runs execute the library untouched.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import statistics
import sys
import threading
import time

# (defining module, public function, span name).  A span name of None means
# the name depends on the arguments (assemble_mass builds M or M-tilde).
TARGETS = [
    ("rkstab.reference", "build_reference_element", "reference.build"),
    ("rkstab.mesh", "generate_mesh", "mesh.generate"),
    ("rkstab.mesh", "build_affine_maps", "mesh.affine_maps"),
    ("rkstab.mesh", "number_dofs", "mesh.number_dofs"),
    ("rkstab.mesh", "build_patches", "mesh.patches"),
    ("rkstab.assembly", "assemble_system", "assembly.system"),
    ("rkstab.assembly", "assemble_mass", None),
    ("rkstab.assembly", "assemble_stiffness", "assembly.stiffness"),
    ("rkstab.assembly", "apply_dirichlet", "assembly.dirichlet"),
    ("rkstab.assembly", "l2_project", "assembly.l2_project"),
    ("rkstab.bounds", "compute_bound_report", "bounds.report"),
    ("rkstab.bounds", "diag_ratio_bounds", "bounds.diag_ratio"),
    ("rkstab.bounds", "geometric_bound", "bounds.geometric"),
    ("rkstab.bounds", "zhudu_bound", "bounds.zhudu"),
    ("rkstab.bounds", "is_m_matrix", "bounds.m_matrix"),
    ("rkstab.bounds", "lambda_max_generalized", "bounds.eigensolve"),
    ("rkstab.timestepping", "stable_timestep", "timestepping.stable_step"),
    ("rkstab.timestepping", "integrate", "timestepping.integrate"),
    ("rkstab.timestepping", "l2_growth_certificate", "timestepping.certificate"),
    ("rkstab.cli", "main", "cli.main"),
]

# Per-layer metrics taken from span self times.
LAYER_SPANS = {
    "reference.build_s": "reference.build",
    "mesh.generate_s": "mesh.generate",
    "mesh.affine_maps_s": "mesh.affine_maps",
    "mesh.number_dofs_s": "mesh.number_dofs",
    "mesh.patches_s": "mesh.patches",
    "assembly.mass_s": "assembly.mass",
    "assembly.surrogate_s": "assembly.surrogate",
    "assembly.stiffness_s": "assembly.stiffness",
    "assembly.dirichlet_s": "assembly.dirichlet",
    "assembly.l2_project_s": "assembly.l2_project",
    "bounds.diag_ratio_s": "bounds.diag_ratio",
    "bounds.geometric_s": "bounds.geometric",
    "bounds.zhudu_s": "bounds.zhudu",
    "bounds.m_matrix_s": "bounds.m_matrix",
    "bounds.eigensolve_s": "bounds.eigensolve",
    "timestepping.stable_step_s": "timestepping.stable_step",
    "timestepping.certificate_s": "timestepping.certificate",
}


def _mass_span_name(args, kwargs) -> str:
    policy = kwargs.get("policy", args[2] if len(args) > 2 else None)
    consistent = policy is None or getattr(policy, "kind", None) == "consistent"
    return "assembly.mass" if consistent else "assembly.surrogate"


class Tracer:
    """Collects spans while active; one instance per benchmark run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.traced_requests: list[str] = []
        self._request: str | None = None
        self._tag: str | None = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._wrappers: list[tuple[object, object]] = []  # (original, wrapper)
        for module_name, attr, span_name in TARGETS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            namer = _mass_span_name if span_name is None else (lambda a, k, n=span_name: n)
            self._wrappers.append((original, self._wrap(original, namer)))
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, start, end, sid, parent) -> None:
        # list.append is atomic under the interpreter lock, so pool threads
        # of the CLI sweep can record concurrently.
        self.spans.append({
            "id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "workload": self.workload,
            "request": self._request, "tag": self._tag,
            "thread": threading.get_ident(),
        })

    def _wrap(self, fn, namer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._record(namer(args, kwargs), start, end, sid, parent)
        return traced

    def _install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "rkstab" or name.startswith("rkstab."))]
        for original, wrapper in self._wrappers:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def _uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    @contextlib.contextmanager
    def active(self, request: str, tag: str):
        """Patch the targets and open a root span for one request."""
        self._request, self._tag = request, tag
        if request not in self.traced_requests:
            self.traced_requests.append(request)
        self._install()
        stack = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._record("bench." + request.split("#")[0], start, end, sid, None)
            self._uninstall()
            self._request = self._tag = None

    def self_times(self) -> list[dict]:
        """Spans with their self time: duration minus their children's."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] = (
                    child_time.get(span["parent"], 0.0) + span["end"] - span["start"]
                )
        return [
            dict(span, self=span["end"] - span["start"] - child_time.get(span["id"], 0.0))
            for span in self.spans
        ]

    def layer_seconds(self, name: str, tag: str | None = None) -> float:
        """Self time of one span name per workload pass.

        Self time is summed within each traced request, the median is taken
        over the traced requests of each kind (setup, round, once), and the
        medians are added: the layer's cost for one setup plus one round plus
        the one-off steps.  Requests without the span count as zero.
        """
        per_request = {request: 0.0 for request in self.traced_requests}
        for span in self.self_times():
            if span["name"] == name and (tag is None or span["tag"] == tag):
                per_request[span["request"]] += span["self"]
        by_kind: dict[str, list[float]] = {}
        for request, seconds in per_request.items():
            by_kind.setdefault(request.split("#")[0], []).append(seconds)
        return sum(statistics.median(values) for values in by_kind.values())

    def call_counts(self) -> dict[str, dict[str, int]]:
        """Number of calls of each span name in each traced request."""
        counts: dict[str, dict[str, int]] = {}
        for span in self.spans:
            per = counts.setdefault(span["request"], {})
            per[span["name"]] = per.get(span["name"], 0) + 1
        return counts

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.self_times():
                handle.write(json.dumps(span, sort_keys=True) + "\n")
