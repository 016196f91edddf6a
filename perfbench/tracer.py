"""Spans around qflow's layer boundaries, installed from outside the package.

Only the traced run installs the wrappers.  Each wrapped call records a span
``(id, name, start, end, parent, op, size)``: ``parent`` is the id of the
innermost wrapped call that was open when it started (-1 at the top),
``op`` the harness operation it belongs to, and ``size`` an optional work
size (matrix dimension for ``matrix_exp``, points for a trace-distance
series).  Spans stay in memory; ``layer_metrics`` reduces them to the
per-layer metrics and ``write_jsonl`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# The layer boundaries that get a span.  Trivial predicates and array
# helpers (uses_stacked, dims, vec, kron, projector, ...) stay unwrapped: they
# run hundreds of thousands of times per pass, a span would cost more than
# the call, and their time is charged to the caller's self time instead.
STATE_OPS = (
    "flatten_state", "unflatten_state", "state_trace", "sys_marginal",
    "env_marginal", "env_after_projection", "product_with_env",
    "expect_system_projector", "bipartite_trace_distance", "resymmetrized",
)
TRACED = {
    "qflow.qcore": ("matrix_exp", "partial_trace", "trace_distance",
                    "validate_density_matrix", "lindblad_superoperator",
                    "kraus_superoperator"),
    "qflow.models": ("assemble_generator", "initial_state", "check_bystander",
                     "load_model", "model_from_dict") + STATE_OPS,
    "qflow.evolve": ("propagate", "propagate_interval", "PropagatorCache.at",
                     "_rk4_span", "solve_channel_coefficients",
                     "coherent_weight_series", "depolarizing_weight",
                     "trace_distance_factor"),
    "qflow.witness": ("trace_distance_series", "trace_distance_bound",
                      "cpf_joint_deterministic", "cpf_joint_random", "cpf_grid",
                      "cpf_equal_times", "cpf_correlation", "_check_tensor"),
    "qflow.cli": ("main",),
}


def _size_of(name):
    """Work size recorded with a span, or None."""
    if name == "qcore.matrix_exp":
        return lambda args, result: int(result.shape[0])
    if name == "witness.trace_distance_series":
        return lambda args, result: int(result.values.size)
    return None


class Tracer:
    """Span recorder.  ``install`` patches every binding of the traced
    functions in the loaded qflow modules; ``uninstall`` restores them."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._next_id = 0
        self._undo = []

    def _wrap(self, name, fn):
        size = _size_of(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                n = size(args, result) if size and result is not None else None
                self.spans.append((sid, name, start, end, parent, self.op, n))

        return traced

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items()
                   if key == "qflow" or key.startswith("qflow.")]
        for modname, attrs in TRACED.items():
            home = importlib.import_module(modname)
            layer = modname.split(".", 1)[1]
            for attr in attrs:
                span = f"{layer}.{attr}"
                if "." in attr:  # a method: patch it on its class
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._undo.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(span, original))
                    continue
                original = getattr(home, attr)
                wrapped = self._wrap(span, original)
                # every module-level binding, not just the home module:
                # witness imports propagate by name, cli the witness functions
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, original))
                            setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def take(self):
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def write_jsonl(spans, path):
    keys = ("id", "name", "start", "end", "parent", "op", "size")
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(spans):
    """Per-layer metrics of one pass.  Self time is a span's duration minus
    the durations of its direct children."""
    names = {s[0]: s[1] for s in spans}
    child = defaultdict(float)
    for sid, name, start, end, parent, op, n in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_s = Counter(), defaultdict(float)
    entries = Counter()       # calls into a layer from outside it
    layer_self = defaultdict(float)
    expm_misses = rk4_assembles = td_points = 0
    n3 = max_dim = 0
    for sid, name, start, end, parent, op, n in spans:
        own = (end - start) - child[sid]
        calls[name] += 1
        self_s[name] += own
        layer = name.split(".", 1)[0]
        layer_self[layer] += own
        parent_name = names.get(parent, "")
        if parent_name.split(".", 1)[0] != layer:
            entries[layer] += 1
        if name == "qcore.matrix_exp":
            n3 += n ** 3
            max_dim = max(max_dim, n)
            expm_misses += parent_name == "evolve.PropagatorCache.at"
        elif name == "models.assemble_generator":
            rk4_assembles += parent_name == "evolve._rk4_span"
        elif name == "witness.trace_distance_series":
            td_points += n
        elif name == "witness.trace_distance_bound":
            td_points += 2
    lookups = calls["evolve.PropagatorCache.at"]
    state_ops = [f"models.{op}" for op in STATE_OPS]
    return {
        "cli.main.calls": calls["cli.main"],
        "cli.self_s": layer_self["cli"],
        "witness.calls": entries["witness"],
        "witness.self_s": layer_self["witness"],
        "witness.cpf_tensors": calls["witness._check_tensor"],
        "witness.td_points": td_points,
        "evolve.propagate.calls": calls["evolve.propagate"],
        "evolve.propagate_interval.calls": calls["evolve.propagate_interval"],
        "evolve.self_s": layer_self["evolve"],
        "evolve.cache_lookups": lookups,
        "evolve.expm_calls": expm_misses,
        "evolve.cache_hit_ratio": (lookups - expm_misses) / lookups if lookups else 0.0,
        "evolve.rk4_substeps": rk4_assembles / 4,
        "models.assemble_generator.calls": calls["models.assemble_generator"],
        "models.assemble_generator.s": self_s["models.assemble_generator"],
        "models.state_ops.calls": sum(calls[k] for k in state_ops),
        "models.state_ops.s": sum(self_s[k] for k in state_ops),
        "models.load.s": self_s["models.load_model"] + self_s["models.model_from_dict"],
        "models.check_bystander.s": self_s["models.check_bystander"],
        "qcore.matrix_exp.calls": calls["qcore.matrix_exp"],
        "qcore.matrix_exp.s": self_s["qcore.matrix_exp"],
        "qcore.matrix_exp.n3": n3,
        "qcore.matrix_exp.max_dim": max_dim,
        "qcore.partial_trace.calls": calls["qcore.partial_trace"],
        "qcore.partial_trace.s": self_s["qcore.partial_trace"],
        "qcore.trace_distance.calls": calls["qcore.trace_distance"],
        "qcore.trace_distance.s": self_s["qcore.trace_distance"],
    }
