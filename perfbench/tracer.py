"""In-memory tracing of pgsosp's modules, installed from outside the package.

`instrument` wraps every public function of every ``pgsosp.*`` module (plus
the few private ones and class methods listed below) and rebinds every
module-level name bound to the original object -- in the defining module,
in every pgsosp module that imported it, and in module-level dicts such as
the CLI's handler table.  Functions in HOT run 10^4 to 10^6 times a round;
they only add to a counter and a time total.  All other wrapped functions
also record a span (name, start, end, parent).  Spans stay in memory and
are written once, when the run ends.

Every wrapped call updates an aggregate keyed by (name, caller, root),
where the caller is the innermost wrapped function on the stack and the
root is the command the harness is running.  Each aggregate keeps calls,
total time, self time (total minus the time of wrapped callees) and up to
two work units (trajectories and steps, chain-steps, or enumerated items).
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time

PACKAGE = "pgsosp"
LAYERS = ("cli", "trainer", "sosp", "oracle", "estimators", "policy", "mdp", "util")

# Private functions that carry a layer metric.
EXTRA_FUNCTIONS = {
    "oracle._gradient_visitation", "oracle._gradient_enumeration",
    "estimators._hessian_table",
}
_POLICY_QUERIES = ("action_probs", "grad_prob", "grad_log_prob", "hessian_log_prob")
_ROW_METHODS = ("objective", "gradient", "hessian")
METHODS = {
    "policy.TabularSoftmax": _POLICY_QUERIES,
    "policy.ExampleOnePiecewise": _POLICY_QUERIES,
    "trainer.MdpPolicySource": _ROW_METHODS + ("sample_gradient",),
    "trainer.NoiseSpec": ("draw",),
}
# Diagnostics rows call these once per row; the other methods run per
# update, per query or per chain step and are counted only.
_SPAN_METHODS = {f"trainer.MdpPolicySource.{m}" for m in _ROW_METHODS}
HOT = {
    "util.derive_rng", "util.frozen_array", "util.json_ready", "util.format_float",
    "mdp.sample_trajectory", "mdp.discounted_return",
    "estimators.score_sum", "estimators.pg_estimate", "estimators.reward_to_go",
    "estimators.hessian_estimate", "oracle.as_trajectory",
}


def _rollout_units(signature):
    def units(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        n = int(bound.arguments["n"])
        return n, n * int(bound.arguments["mdp"].horizon)
    return units


def _draw_units(args, kwargs):
    # NoiseSpec.draw(self, rng, n, dim): n chains advance one step.
    return (args[2] if len(args) > 2 else kwargs["n"]), 0


CALLS, TOTAL, SELF, UNITS, UNITS2 = range(5)


class Tracer:
    def __init__(self):
        self.stack = []    # open frames: [name, child_time, enclosing span index]
        self.spans = []    # (name, start, end, parent span index, units)
        self.stats = {}    # (name, caller, root) -> [calls, total, self, units, units2]
        self.root = ""

    def _record(self, name, parent, dt, frame, units):
        key = (name, parent[0] if parent is not None else "", self.root)
        rec = self.stats.get(key)
        if rec is None:
            rec = self.stats[key] = [0, 0.0, 0.0, 0, 0]
        rec[CALLS] += 1
        rec[TOTAL] += dt
        rec[SELF] += dt - frame[1]
        if units is not None:
            rec[UNITS] += units[0]
            rec[UNITS2] += units[1]

    def wrap(self, fn, name, units_fn=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        stack, spans, clock, record = self.stack, self.spans, time.perf_counter, self._record
        is_span = name not in HOT and (name.count(".") == 1 or name in _SPAN_METHODS)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            enclosing = parent[2] if parent is not None else -1
            units = units_fn(args, kwargs) if units_fn is not None else None
            if is_span:
                index = len(spans)
                spans.append(None)
                frame = [name, 0.0, index]
            else:
                frame = [name, 0.0, enclosing]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                if parent is not None:
                    parent[1] += dt
                record(name, parent, dt, frame, units)
                if is_span:
                    spans[index] = (name, t0, t1, enclosing, units)
        return wrapper

    def _wrap_generator(self, fn, name):
        """Count yielded items and the time from first request to exhaustion,
        which includes the consumer's work per item."""
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def counted():
                parent = stack[-1] if stack else None
                key = (name, parent[0] if parent is not None else "", self.root)
                items = 0
                t0 = clock()
                try:
                    for item in inner:
                        items += 1
                        yield item
                finally:
                    rec = self.stats.setdefault(key, [0, 0.0, 0.0, 0, 0])
                    rec[CALLS] += 1
                    rec[TOTAL] += clock() - t0
                    rec[UNITS] += items
            return counted()
        return wrapper

    # -- queries ----------------------------------------------------------

    def total(self, field, name=None, caller=None, root=None, match=None):
        out = 0
        for (n, c, r), rec in self.stats.items():
            if name is not None and n != name:
                continue
            if match is not None and not match(n):
                continue
            if caller is not None and c != caller:
                continue
            if root is not None and r != root:
                continue
            out += rec[field]
        return out

    def layer_self(self, layer):
        return self.total(SELF, match=lambda n: n.split(".", 1)[0] == layer)

    def span_time_excluding(self, name, excluded):
        """(sum of `name` span time minus its descendant `excluded` spans,
        sum of the excluded spans' first work unit)."""
        kept, units = 0.0, 0
        for idx, span in enumerate(self.spans):
            if span is None or span[0] != excluded:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent >= 0:
                kept -= span[2] - span[1]
                units += span[4][0]
        for span in self.spans:
            if span is not None and span[0] == name:
                kept += span[2] - span[1]
        return kept, units

    def write(self, path, meta):
        names = sorted({s[0] for s in self.spans if s is not None})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "meta": meta,
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans
                      if s is not None],
            "aggregates": [[n, c, r, *rec] for (n, c, r), rec in
                           sorted(self.stats.items())],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def instrument(tracer: Tracer):
    """Wrap and rebind; returns a function that restores every original."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and n.startswith(PACKAGE + ".")]
    wrappers = {}
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and (
                    not attr.startswith("_") or f"{short}.{attr}" in EXTRA_FUNCTIONS):
                name = f"{short}.{attr}"
                units = _rollout_units(inspect.signature(obj)) \
                    if name == "mdp.rollout_batch" else None
                wrappers[obj] = tracer.wrap(obj, name, units)
    undo = []
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                undo.append(functools.partial(setattr, mod, attr, obj))
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in wrappers:
                        obj[key] = wrappers[value]
                        undo.append(functools.partial(obj.__setitem__, key, value))
    for path, methods in METHODS.items():
        short, cls_name = path.split(".")
        cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
        for meth in methods:
            orig = cls.__dict__[meth]
            units = _draw_units if meth == "draw" else None
            setattr(cls, meth, tracer.wrap(orig, f"{path}.{meth}", units))
            undo.append(functools.partial(setattr, cls, meth, orig))

    def restore():
        for step in reversed(undo):
            step()
    return restore


def _per(numerator, denominator, scale=1.0):
    return scale * numerator / denominator if denominator else 0.0


def layer_metrics(tr: Tracer, rounds: int, active_chain_steps: int) -> dict:
    """Per-layer metrics of the traced rounds; counts and seconds per round.

    active_chain_steps is the number of escape chain-steps of runs that had
    not yet escaped, which the harness reads from the escape outputs.
    """
    def calls(name, **kw):
        return tr.total(CALLS, name, **kw)

    def secs(name, **kw):
        return tr.total(TOTAL, name, **kw)

    def units(name, **kw):
        return tr.total(UNITS, name, **kw)

    m = {}
    m["util.derive_rng.calls"] = (calls("util.derive_rng") / rounds, "count")
    m["util.derive_rng.us_per_call"] = (
        _per(secs("util.derive_rng"), calls("util.derive_rng"), 1e6), "us")

    traj = units("mdp.rollout_batch")
    m["mdp.rollout_batch.trajectories"] = (traj / rounds, "count")
    m["mdp.rollout_batch.us_per_traj"] = (_per(secs("mdp.rollout_batch"), traj, 1e6), "us")
    m["mdp.rollout_batch.ns_per_step"] = (
        _per(secs("mdp.rollout_batch"), tr.total(UNITS2, "mdp.rollout_batch"), 1e9), "ns")
    m["mdp.sample_trajectory.calls"] = (calls("mdp.sample_trajectory") / rounds, "count")
    m["mdp.sample_trajectory.us_per_call"] = (
        _per(secs("mdp.sample_trajectory"), calls("mdp.sample_trajectory"), 1e6), "us")
    m["mdp.policy_matrix.calls"] = (calls("mdp.policy_matrix") / rounds, "count")
    m["mdp.value_stack.us_per_call"] = (
        _per(secs("mdp.value_stack"), calls("mdp.value_stack"), 1e6), "us")

    m["policy.queries"] = (tr.total(CALLS, match=lambda n: n.startswith("policy.")
                                    and n.rsplit(".", 1)[1] in _POLICY_QUERIES)
                           / rounds, "count")
    m["policy.estimate_regularity.ms_per_call"] = (
        _per(secs("policy.estimate_regularity"), calls("policy.estimate_regularity"),
             1e3), "ms")

    m["estimators.score_table.us_per_call"] = (
        _per(secs("estimators.score_table"), calls("estimators.score_table"), 1e6), "us")
    for name in ("batch_gradient", "batch_hessian"):
        t, n = tr.span_time_excluding(f"estimators.{name}", "mdp.rollout_batch")
        m[f"estimators.{name}.ns_per_sample"] = (_per(t, n, 1e9), "ns")
    m["estimators.pg_estimate.us_per_call"] = (
        _per(secs("estimators.pg_estimate"), calls("estimators.pg_estimate"), 1e6), "us")
    m["estimators.hessian_estimate.calls"] = (
        calls("estimators.hessian_estimate") / rounds, "count")
    m["estimators.hessian_estimate.us_per_call"] = (
        _per(secs("estimators.hessian_estimate"), calls("estimators.hessian_estimate"),
             1e6), "us")

    enum = units("oracle.enumerate_trajectories")
    m["oracle.enum.trajectories"] = (enum / rounds, "count")
    m["oracle.enum.us_per_traj"] = (
        _per(secs("oracle.enumerate_trajectories"), enum, 1e6), "us")
    for name in ("exact_gradient", "exact_hessian"):
        m[f"oracle.{name}.calls"] = (calls(f"oracle.{name}") / rounds, "count")
        m[f"oracle.{name}.ms_per_call"] = (
            _per(secs(f"oracle.{name}"), calls(f"oracle.{name}"), 1e3), "ms")
    m["oracle.exact_gradient.enum_share"] = (
        _per(secs("oracle._gradient_enumeration", caller="oracle.exact_gradient"),
             secs("oracle.exact_gradient")), "frac")
    m["oracle.fd_fallback.calls"] = (calls("oracle.fd_hessian_from_gradient") / rounds,
                                     "count")

    m["sosp.sym_eig_max.calls"] = (calls("sosp.sym_eig_max") / rounds, "count")
    m["sosp.sym_eig_max.us_per_call"] = (
        _per(secs("sosp.sym_eig_max"), calls("sosp.sym_eig_max"), 1e6), "us")
    for name in ("second_order_report", "cnc_enumerate", "cnc_estimate"):
        m[f"sosp.{name}.ms_per_call"] = (
            _per(secs(f"sosp.{name}"), calls(f"sosp.{name}"), 1e3), "ms")

    updates = calls("trainer.MdpPolicySource.sample_gradient", caller="trainer.run")
    rows = calls("sosp.report_from_grad_hessian", caller="trainer.run")
    row_time = tr.total(TOTAL, caller="trainer.run",
                        match=lambda n: n in _SPAN_METHODS
                        or n == "sosp.report_from_grad_hessian")
    m["trainer.run.updates"] = (updates / rounds, "count")
    m["trainer.run.us_per_update"] = (
        _per(secs("trainer.run") - row_time, updates, 1e6), "us")
    m["trainer.run.rows"] = (rows / rounds, "count")
    m["trainer.run.ms_per_row"] = (_per(row_time, rows, 1e3), "ms")
    for kind, fn in (("escape", "trainer.verify_escape"), ("trap", "trainer.verify_trap")):
        steps = units("trainer.NoiseSpec.draw", caller=fn)
        m[f"trainer.{kind}.chain_steps"] = (steps / rounds, "count")
        m[f"trainer.{kind}.ns_per_chain_step"] = (_per(secs(fn), steps, 1e9), "ns")
        if kind == "escape":
            m["trainer.escape.active_frac"] = (_per(active_chain_steps, steps), "frac")

    # build_source calls build_problem for MDP-backed problems; count it once.
    parse = (secs("cli.load_config") + secs("cli.build_source")
             + secs("cli.build_problem")
             - secs("cli.build_problem", caller="cli.build_source"))
    m["cli.parse_ms"] = (parse / rounds * 1e3, "ms")
    m["cli.emit_ms"] = ((secs("util.canonical_json") + secs("util.write_csv"))
                        / rounds * 1e3, "ms")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tr.layer_self(layer) / rounds, "s")
    return m
