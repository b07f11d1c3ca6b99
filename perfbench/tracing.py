"""Per-layer spans recorded from outside the program.

The tracer replaces public functions of ``depolgas`` with timed wrappers,
patching each name in every module that looks it up (``cli`` imports the
``meanfield`` and ``microsim`` functions into its own namespace, so both the
defining module and ``cli`` are patched).  A wrapper records the call count
and self time (its duration minus the time of wrapped calls made inside it)
of its layer, plus the work counts the layer exposes through its arguments
and results.  A name that no longer exists is reported as an absent layer
instead of failing, so the benchmark keeps working after the program
replaces a function.

Which end-to-end metric each layer should move:

* ``microsim.eig``: ``wall_s`` on big-box (most) and ladder.
* ``microsim.assemble`` and ``kernels.contact_scalars``: ``wall_s`` and
  ``peak_rss_mb`` on big-box, ``wall_s`` on ladder.
* ``microsim.sample``: ``wall_s`` on ladder; barely big-box.
* ``kernels.radial_scalars.spectral`` and ``meanfield``: ``wall_s`` on ladder
  only (its mean-field commands, about 13% of a pass).
* ``config``, ``cli`` and imports: ``setup_s`` on every workload.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from workloads import gamma_peak

# atom-count buckets of the N-scaling curve: a call lands in the smallest
# bucket that holds its configuration (N <= bucket)
BUCKETS = (64, 128, 256, 512, 1024)

# every per-layer metric the traced run reports, with its unit; BENCHMARK.json
# lists the same names
PER_LAYER = [
    ("microsim.sample.calls", "count"),
    ("microsim.sample.s", "s"),
    ("microsim.sample.atoms", "count"),
    ("microsim.assemble.calls", "count"),
    ("microsim.assemble.s", "s"),
    ("microsim.assemble.matrix_bytes_computed", "bytes"),
    ("microsim.eig.calls", "count"),
    ("microsim.eig.s", "s"),
    ("microsim.eig.gflop_computed", "GFLOP"),
    ("microsim.mode_basis.s", "s"),
    ("microsim.scan.s", "s"),
    ("microsim.scan.solves", "count"),
    ("microsim.scan.probe_solves", "count"),
    *((f"microsim.{layer}.s.n{b}", "s/call")
      for layer in ("sample", "assemble", "eig") for b in BUCKETS),
    ("kernels.contact_scalars.calls", "count"),
    ("kernels.contact_scalars.s", "s"),
    ("kernels.contact_scalars.pairs", "count"),
    ("kernels.contact_scalars.useful_frac", "ratio"),
    ("kernels.radial_scalars.spectral.calls", "count"),
    ("kernels.radial_scalars.spectral.s", "s"),
    ("kernels.radial_scalars.real.calls", "count"),
    ("kernels.radial_scalars.real.s", "s"),
    ("meanfield.overlap_integral.calls", "count"),
    ("meanfield.overlap_integral.s", "s"),
    ("meanfield.branch_frequencies.calls", "count"),
    ("meanfield.branch_frequencies.s", "s"),
    ("meanfield.critical_ratio_bisection.calls", "count"),
    ("meanfield.critical_ratio_bisection.s", "s"),
    ("config.load_config.s", "s"),
    ("cli.kernel-check.s", "s"),
    ("cli.shift.s", "s"),
    ("cli.dispersion.s", "s"),
    ("cli.critical.s", "s"),
    ("cli.microsim.s", "s"),
    ("cli.write_outputs.s", "s"),
    ("cli.csv_bytes", "bytes"),
    ("trace_overhead_frac", "ratio"),
]

# measured by the benchmark runner rather than by a wrapper
_FILLED_BY_CALLER = ("cli.csv_bytes", "trace_overhead_frac")

# contact-tensor entries below this share of Gamma(0) count as wasted work
_USEFUL_SHARE = 1e-4


def _bucket(n_atoms):
    if n_atoms is None:
        return None
    for b in BUCKETS:
        if n_atoms <= b:
            return b
    return None


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


class Tracer:
    """Aggregated spans of the wrapped layers; install, run, restore."""

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple] = []
        self._atoms = None  # atom count of the configuration being assembled

    def add(self, layer: str, key: str, amount: float) -> None:
        self.stats[layer][key] += amount

    def wrap(self, modules, name: str, layer, after=None) -> None:
        """Time every call of ``name`` looked up in any of ``modules``.

        ``layer`` is the span name, or a function of (args, kwargs) giving
        it; ``after(layer, args, kwargs, result, self_s)`` adds the layer's
        work counts once a call has returned.
        """
        owners = [m for m in modules if hasattr(m, name)]
        if not owners:
            self.absent.append(f"{modules[0].__name__}.{name}")
            return
        for module in owners:
            original = getattr(module, name)
            setattr(module, name, self._traced(original, layer, after))
            self._patches.append((module, name, original))

    def _traced(self, original, layer, after):
        def traced(*args, **kwargs):
            child = [0.0]
            self._stack.append(child)
            t0 = time.perf_counter()
            ok = False
            try:
                result = original(*args, **kwargs)
                ok = True
                return result
            finally:
                self_s = time.perf_counter() - t0 - child[0]
                self._stack.pop()
                span = layer(args, kwargs) if callable(layer) else layer
                self.add(span, "calls", 1)
                self.add(span, "s", self_s)
                if ok and after is not None:
                    after(span, args, kwargs, result, self_s)
                # the parent's self time excludes this call and its counting
                if self._stack:
                    self._stack[-1][0] += time.perf_counter() - t0
        return traced

    def restore(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    # -- work counts of the microsim and kernels layers ---------------------

    def _count_bucket(self, layer, n_atoms, self_s):
        b = _bucket(n_atoms)
        if b is not None:
            self.add(f"{layer}.n{b}", "calls", 1)
            self.add(f"{layer}.n{b}", "s", self_s)

    def after_sample(self, layer, args, kwargs, result, self_s):
        n = getattr(result, "n_atoms", None)
        if n is not None:
            self.add(layer, "atoms", n)
        self._count_bucket(layer, n, self_s)

    def after_assemble(self, layer, args, kwargs, result, self_s):
        config = _arg(args, kwargs, 0, "config")
        self._atoms = getattr(config, "n_atoms", None)
        self.add(layer, "matrix_bytes_computed", getattr(result, "nbytes", 0))
        self._count_bucket(layer, self._atoms, self_s)

    def after_eig(self, layer, args, kwargs, result, self_s):
        shape = getattr(_arg(args, kwargs, 0, "matrix"), "shape", None)
        if shape:
            self.add(layer, "gflop_computed", 4.0 / 3.0 * float(shape[0]) ** 3 / 1e9)
        self._count_bucket(layer, self._atoms, self_s)

    def after_scan(self, layer, args, kwargs, result, self_s):
        replicas = getattr(result, "replicas", 0)
        probes = len(getattr(result, "probes", ()))
        grid = len(getattr(result, "density_grid", ()))
        self.add(layer, "solves", (grid + probes) * replicas)
        self.add(layer, "probe_solves", probes * replicas)

    def after_contact(self, layer, args, kwargs, result, self_s):
        profile = _arg(args, kwargs, 0, "profile")
        ut, ul = (np.abs(np.asarray(part)) for part in result)
        tol = _USEFUL_SHARE * gamma_peak(profile.shape, profile.ell)
        self.add(layer, "pairs", ut.size)
        self.add(layer, "useful", int(np.count_nonzero((ut > tol) | (ul > tol))))


def layer_metrics(stats: dict, passes: int) -> dict:
    """Per-layer metrics from merged tracer stats, per pass; bucket times per call.

    ``cli.csv_bytes`` and ``trace_overhead_frac`` are measured by the runner.
    """
    out = {}
    for name, unit in PER_LAYER:
        layer, _, key = name.rpartition(".")
        if name in _FILLED_BY_CALLER:
            continue
        if key.startswith("n") and key[1:].isdigit():
            bucket = stats.get(f"{layer.rpartition('.')[0]}.{key}", {})
            value = bucket["s"] / bucket["calls"] if bucket.get("calls") else 0.0
        elif key == "useful_frac":
            counts = stats.get(layer, {})
            value = counts["useful"] / counts["pairs"] if counts.get("pairs") else 0.0
        else:
            value = stats.get(layer, {}).get(key, 0.0) / passes
        out[name] = {"value": value, "unit": unit}
    return out


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the program."""
    from depolgas import cli, config, kernels, meanfield, microsim

    t = tracer
    t.wrap([microsim], "sample_configuration", "microsim.sample", t.after_sample)
    t.wrap([microsim], "assemble_dynamical_matrix", "microsim.assemble", t.after_assemble)
    t.wrap([microsim], "minimal_eigenvalue", "microsim.eig", t.after_eig)
    t.wrap([microsim], "build_mode_basis", "microsim.mode_basis")
    t.wrap([microsim], "mode_field", "microsim.mode_basis")
    t.wrap([cli, microsim], "stability_scan", "microsim.scan", t.after_scan)
    t.wrap([microsim, kernels], "contact_scalars", "kernels.contact_scalars",
           t.after_contact)
    t.wrap([kernels], "radial_scalars",
           lambda args, kwargs: "kernels.radial_scalars."
           + (_arg(args, kwargs, 2, "route") or "real"))
    for name in ("overlap_integral", "branch_frequencies", "critical_ratio_bisection"):
        t.wrap([cli, meanfield], name, f"meanfield.{name}")
    t.wrap([cli, config], "load_config", "config.load_config")
    t.wrap([cli], "_write_outputs", "cli.write_outputs")
    t.wrap([cli], "main", lambda args, kwargs: f"cli.{_arg(args, kwargs, 0, 'argv')[0]}")
