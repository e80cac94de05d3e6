"""Spans around the program's layer boundaries, installed from outside it.

The tracer wraps public functions, methods and callbacks of the loaded
qsakit modules.  Each wrapped call is a span; spans are aggregated in
memory per name (count, total seconds) and per parent/child pair, so a
layer's self time is its total minus what its child spans cover.  Spans
are kept per thread, which is how the sweep's worker threads stay apart.

Untraced runs install only the integrator entry points: one wrapped call
per run, which reads the run's horizon and gain so the benchmark can count
the RK4 steps the run calls for.  Everything else is installed by
``Tracer(full=True)`` for the traced run.
"""

import functools
import inspect
import math
import sys
import threading
import time
from collections import defaultdict

#: spans that own RK4 loops: coupled (plain, filtered), frozen-fast, variational
INTEGRATOR_SPANS = (
    "dynamics.integrate",
    "dynamics.integrate.filtered",
    "dynamics.integrate_frozen_fast",
    "lyapunov.exponent",
)

RHS = "systems.rhs"
ARTIFACT = "cli.artifact"
SUBCOMMANDS = ("sweep-fast", "esc", "meanflow-grid", "pmf", "lyapunov")


def rk4_steps(step_bound, basis, beta, horizon, step=None):
    """Steps of one fixed-step RK4 run, from its horizon and gain.

    Mirrors the integrators' documented policy: the step is the given one
    or ``step_bound(basis, beta)``, and the horizon is split into
    ceil(horizon / step) equal steps.
    """
    h = step if step is not None else step_bound(basis, beta)
    return max(1, math.ceil(horizon / h - 1e-12))


class _ThreadTables:
    """One thread's open spans and its aggregates; merged at read-out."""

    def __init__(self):
        self.stack = []
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.edge_count = defaultdict(int)
        self.edge_total = defaultdict(float)


class Tracer:
    """Installs spans on the loaded package and turns them into metrics."""

    def __init__(self, qsakit_modules, *, full):
        self.mods = qsakit_modules
        self.full = full
        self.steps = defaultdict(int)
        self.sweep_capacity = 0.0  # sum of jobs x sweep wall time
        self._threads = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _tables(self):
        tables = getattr(self._local, "tables", None)
        if tables is None:
            tables = self._local.tables = _ThreadTables()
            with self._lock:
                self._threads.append(tables)
        return tables

    def span(self, name, fn, *, on_exit=None):
        """fn wrapped as a span; name may be a callable of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            tables = tracer._tables()
            stack = tables.stack
            parent = stack[-1] if stack else None
            stack.append(label)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                stack.pop()
                tables.count[label] += 1
                tables.total[label] += seconds
                if parent is not None:
                    tables.edge_count[parent, label] += 1
                    tables.edge_total[parent, label] += seconds
                if on_exit is not None:
                    on_exit(label, args, kwargs, seconds)

        return traced

    def _merged(self, attr):
        out = defaultdict(int)
        for tables in self._threads:
            for key, value in getattr(tables, attr).items():
                out[key] += value
        return out

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Rebind every module-level name that refers to original."""
        for mod in self.mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _patch_attr(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap_function(self, module, attr, name, **kw):
        original = getattr(self.mods[module], attr)
        self._replace_everywhere(original, self.span(name, original, **kw))

    def _wrap_method(self, module, cls, attr, name):
        owner = getattr(self.mods[module], cls)
        self._patch_attr(owner, attr, self.span(name, getattr(owner, attr)))

    def _count_steps(self, signature, step_bound):
        def on_exit(label, args, kwargs, seconds):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            a = call.arguments
            beta = a["schedule"].beta if "schedule" in a else a["beta"]
            n = rk4_steps(step_bound, a["system"].basis, beta, a["horizon"], a["step"])
            with self._lock:
                self.steps[label] += n

        return on_exit

    def install(self):
        dyn = self.mods["qsakit.dynamics"]
        lya = self.mods["qsakit.lyapunov"]
        for module, attr, name in (
            (dyn, "integrate", lambda a, k: "dynamics.integrate.filtered"
             if k.get("filt") is not None else "dynamics.integrate"),
            (dyn, "integrate_frozen_fast", "dynamics.integrate_frozen_fast"),
            (lya, "lyapunov_exponent", "lyapunov.exponent"),
        ):
            fn = getattr(module, attr)
            on_exit = self._count_steps(inspect.signature(fn), dyn.step_bound)
            self._replace_everywhere(fn, self.span(name, fn, on_exit=on_exit))
        if self.full:
            self._install_layers()
        return self

    def _install_layers(self):
        w = self._wrap_function
        w("qsakit.probing", "clock_phases", "probing.clock_phases")
        w("qsakit.probing", "ergodic_average", "probing.ergodic_average")
        w("qsakit.meanflow", "mean_field_g0", "meanflow.g0")
        w("qsakit.meanflow", "find_root_g0", "meanflow.root")
        w("qsakit.meanflow", "fast_equilibrium", "meanflow.fast_equilibrium")
        w("qsakit.meanflow", "stationary_grid", "meanflow.grid")
        w("qsakit.poisson", "pmeanflow_terms", "poisson.terms")
        w("qsakit.experiments", "pmf_identity_suite", "experiments.pmf_suite")
        w("qsakit.experiments", "fast_error_sweep", "experiments.sweep",
          on_exit=self._sweep_capacity)
        w("qsakit.config", "resolve", "config.resolve")
        for module, attr in (
            ("qsakit.experiments", "_write_sweep_artifacts"),
            ("qsakit.meanflow", "write_grid_csv"),
            ("qsakit.lyapunov", "write_exponent_csv"),
            ("qsakit.cli", "_dump_json"),
            ("qsakit.config", "dump_resolved"),
        ):
            w(module, attr, ARTIFACT)
        self._wrap_method("qsakit.dynamics", "Trajectory", "to_csv", ARTIFACT)
        self._wrap_method("qsakit.probing", "ProbingMap", "__call__", "probing.map")
        self._wrap_method("qsakit.esc", "Objective", "__call__", "esc.objective")
        self._wrap_method("qsakit.fourier", "FourierField", "eval", "fourier.eval")
        handlers = self.mods["qsakit.cli"].HANDLERS
        for sub, fn in list(handlers.items()):
            self._patch_dict(handlers, sub, self.span(f"cli.{sub}", fn))
        self._wrap_callbacks()

    def _patch_dict(self, table, key, replacement):
        self._undo.append((table, key, table[key]))
        table[key] = replacement

    def _sweep_capacity(self, label, args, kwargs, seconds):
        with self._lock:
            self.sweep_capacity += kwargs.get("jobs", 1) * seconds

    def _wrap_callbacks(self):
        """Every system built while tracing gets spans on g, h and g_probe."""
        cls = self.mods["qsakit.dynamics"].TwoTimescaleSystem
        original_init = cls.__init__
        tracer = self

        @functools.wraps(original_init)
        def init(system, *args, **kwargs):
            original_init(system, *args, **kwargs)
            for attr in ("g", "h", "g_probe"):
                cb = getattr(system, attr)
                if cb is not None:
                    setattr(system, attr, tracer.span(RHS, cb))

        self._patch_attr(cls, "__init__", init)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- read-outs ---------------------------------------------------------

    def total_steps(self):
        return sum(self.steps.values())

    def layer_metrics(self, rounds):
        """Per-layer figures of ``rounds`` identical traced rounds.

        Counts are per round; times are per call, per step or per round as
        their names say.  A layer the workload never reaches reads 0.
        """
        c, t = self._merged("count"), self._merged("total")
        edge_count, edge_total = self._merged("edge_count"), self._merged("edge_total")

        def per(numerator, denominator, scale=1.0):
            return numerator / denominator * scale if denominator else 0.0

        def edge(parents, child):
            return (
                sum(edge_count[p, child] for p in parents),
                sum(edge_total[p, child] for p in parents),
            )

        coupled = ("dynamics.integrate", "dynamics.integrate.filtered")
        frozen = "dynamics.integrate_frozen_fast"
        coupled_steps = sum(self.steps[n] for n in coupled)
        coupled_time = sum(t[n] for n in coupled)
        _, rhs_in_coupled = edge(coupled, RHS)
        blocks, map_time = edge(INTEGRATOR_SPANS, "probing.map")
        _, phase_time = edge(INTEGRATOR_SPANS, "probing.clock_phases")
        plain_step = per(t["dynamics.integrate"], self.steps["dynamics.integrate"])
        filtered_step = per(
            t["dynamics.integrate.filtered"], self.steps["dynamics.integrate.filtered"]
        )
        root_g0_calls, _ = edge(("meanflow.root",), "meanflow.g0")
        _, nested_artifact = edge((ARTIFACT,), ARTIFACT)
        metrics = {
            "probing.clock_block_ms": (per(map_time + phase_time, blocks, 1e3), "ms"),
            "probing.ergodic_average_ms": (
                per(t["probing.ergodic_average"], c["probing.ergodic_average"], 1e3), "ms"),
            "systems.rhs_calls": (c[RHS] // rounds, "count"),
            "systems.rhs_call_us": (per(t[RHS], c[RHS], 1e6), "us"),
            "esc.objective_calls": (c["esc.objective"] // rounds, "count"),
            "esc.objective_call_us": (per(t["esc.objective"], c["esc.objective"], 1e6), "us"),
            "dynamics.rk4_steps": (coupled_steps // rounds, "count"),
            "dynamics.rk4_step_us": (per(coupled_time, coupled_steps, 1e6), "us"),
            "dynamics.rk4_self_us": (
                per(coupled_time - rhs_in_coupled, coupled_steps, 1e6), "us"),
            "dynamics.frozen_steps": (self.steps[frozen] // rounds, "count"),
            "dynamics.frozen_step_us": (per(t[frozen], self.steps[frozen], 1e6), "us"),
            "filters.step_overhead_us": (
                (filtered_step - plain_step) * 1e6 if plain_step and filtered_step else 0.0,
                "us"),
            "meanflow.g0_calls": (c["meanflow.g0"] // rounds, "count"),
            "meanflow.g0_ms": (per(t["meanflow.g0"], c["meanflow.g0"], 1e3), "ms"),
            "meanflow.g0_calls_per_root": (
                per(root_g0_calls, c["meanflow.root"]), "calls/root"),
            "meanflow.root_s": (per(t["meanflow.root"], c["meanflow.root"]), "s"),
            "meanflow.fast_equilibrium_ms": (
                per(t["meanflow.fast_equilibrium"], c["meanflow.fast_equilibrium"], 1e3),
                "ms"),
            "meanflow.grid_s": (per(t["meanflow.grid"], c["meanflow.grid"]), "s"),
            "lyapunov.exponent_ms": (
                per(t["lyapunov.exponent"], c["lyapunov.exponent"], 1e3), "ms"),
            "lyapunov.step_us": (
                per(t["lyapunov.exponent"], self.steps["lyapunov.exponent"], 1e6), "us"),
            "poisson.terms_build_ms": (
                per(t["poisson.terms"], c["poisson.terms"], 1e3), "ms"),
            "fourier.field_evals": (c["fourier.eval"] // rounds, "count"),
            "fourier.field_eval_us": (per(t["fourier.eval"], c["fourier.eval"], 1e6), "us"),
            "experiments.pmf_suite_s": (
                per(t["experiments.pmf_suite"], c["experiments.pmf_suite"]), "s"),
            "experiments.sweep_s": (
                per(t["experiments.sweep"], c["experiments.sweep"]), "s"),
            "experiments.pool_busy_ratio": (
                per(coupled_time, self.sweep_capacity) if c["experiments.sweep"] else 0.0,
                "ratio"),
            "cli.artifact_write_s": ((t[ARTIFACT] - nested_artifact) / rounds, "s"),
            "config.resolve_ms": (per(t["config.resolve"], c["config.resolve"], 1e3), "ms"),
        }
        for sub in SUBCOMMANDS:
            name = f"cli.{sub}"
            metrics[f"{name}_s"] = (per(t[name], c[name]), "s")
        return metrics


def qsakit_modules():
    """The loaded modules of the package under test, by dotted name."""
    return {
        name: mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "qsakit" or name.startswith("qsakit."))
    }
