"""Span tracing of doasim's layer boundaries, installed from outside.

Every entry of BOUNDARIES names a module attribute through which one
doasim module calls a public function of another layer (or, inside
`estimators`, a public helper the scan calls). The tracer replaces that
attribute with a wrapper recording (name, start, end, parent) per call,
so only calls across the boundary are traced and no file of the program
changes. A boundary whose attribute is gone is skipped: its span count
is then 0 and the run goes on.

A span's self time is its duration minus the durations of its direct
children. Self times are summed into buckets; the per-layer metrics are
bucket totals per trial or per sweep.
"""
from __future__ import annotations

import importlib
from time import perf_counter

# (calling module, attribute, bucket its self time counts toward)
BOUNDARIES = (
    ("doasim.cli", "parse_config", "config.parse"),
    ("doasim.cli", "run_sweep", "unattributed"),
    ("doasim.cli", "write_results", "config.write"),
    ("doasim.cli", "render_plot", "svgplot.render"),
    ("doasim.experiments", "run_point", "experiments.trial_overhead"),
    ("doasim.experiments", "azimuth_grid", "experiments.engine_build"),
    ("doasim.experiments", "make_manifold", "experiments.engine_build"),
    ("doasim.experiments", "steering_matrix", "experiments.engine_build"),
    ("doasim.experiments", "virtual_steering", "experiments.engine_build"),
    ("doasim.experiments", "apply_coupling_model", "experiments.engine_build"),
    ("doasim.experiments", "perturb", "patterns.perturb"),
    ("doasim.experiments", "generate_snapshots", "manifold.synth"),
    ("doasim.experiments", "sample_covariance", "manifold.covariance"),
    ("doasim.experiments", "music_pseudospectrum", "estimators.scan"),
    ("doasim.experiments", "coarray_music", "estimators.scan"),
    ("doasim.experiments", "pick_peaks", "estimators.peaks"),
    ("doasim.estimators", "steering_matrix", "estimators.scan"),
    ("doasim.estimators", "coarray_covariance", "estimators.lag_average"),
    ("doasim.estimators", "is_perfect", "estimators.lag_average"),
    ("doasim.estimators", "hermitian_eig", "estimators.eigh"),
)
ROOT = "cli.main"
BUCKET = {f"{mod.split('.')[-1]}.{attr}": bucket for mod, attr, bucket in BOUNDARIES}
BUCKET[ROOT] = "unattributed"
ENGINE_BUILDERS = ("experiments.azimuth_grid", "experiments.make_manifold",
                   "experiments.steering_matrix", "experiments.virtual_steering",
                   "experiments.apply_coupling_model")

# The most of a traced sweep that may fall outside every named layer (the
# CLI's own argument parsing and printing, and run_sweep's loop): 2% of its
# wall time, or 5 ms for sweeps so small that argument parsing alone nears 2%.
UNATTRIBUTED_SHARE = 0.02
UNATTRIBUTED_FLOOR_S = 0.005

# Per-layer metrics and their units. Times are self times.
LAYER_UNITS = {
    "estimators.scan_s": "s/trial",
    "estimators.scan_points": "count/trial",
    "estimators.scan_bytes": "B/trial",
    "estimators.lag_average_s": "s/trial",
    "geometry.is_perfect_calls": "count/trial",
    "estimators.eigh_s": "s/trial",
    "estimators.peaks_s": "s/trial",
    "estimators.fill_ratio": "ratio",
    "experiments.engine_build_s": "s/sweep",
    "experiments.engine_builds": "count/sweep",
    "experiments.trial_overhead_s": "s/trial",
    "experiments.trials": "count/sweep",
    "patterns.perturb_s": "s/trial",
    "patterns.perturb_calls": "count/trial",
    "manifold.synth_s": "s/trial",
    "manifold.covariance_s": "s/trial",
    "config.parse_s": "s/sweep",
    "config.write_s": "s/sweep",
    "svgplot.render_s": "s/sweep",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ratio": "ratio",
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _music_size(args, kwargs, spectrum):
    """(grid points, steering rows) of one element-space scan."""
    return len(spectrum.grid), len(_arg(args, kwargs, 0, "r"))


def _coarray_size(args, kwargs, spectrum):
    """(grid points, steering rows) of one scan of the virtual array."""
    return len(spectrum.grid), _arg(args, kwargs, 1, "geometry").aperture + 1


def _fills(args, kwargs, estimates):
    return estimates.fill_count, len(estimates.angles)


MEASURES = {
    "experiments.music_pseudospectrum": _music_size,
    "experiments.coarray_music": _coarray_size,
    "experiments.pick_peaks": _fills,
}


class Tracer:
    """Spans kept in parallel lists; `values[i]` holds span i's measurement."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.values: dict[int, tuple] = {}
        self._stack = [-1]
        self._saved: list[tuple] = []

    def wrap(self, name, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, values, measure = self._stack, self.values, MEASURES.get(name)

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if measure is not None:
                values[i] = measure(args, kwargs, out)
            return out

        return traced

    def install(self) -> list[str]:
        """Patch every boundary present; return the names of missing ones."""
        missing = []
        for mod_name, attr, _ in BOUNDARIES:
            mod = importlib.import_module(mod_name)
            name = f"{mod_name.split('.')[-1]}.{attr}"
            if not hasattr(mod, attr):
                missing.append(name)
                continue
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original))
        return missing

    def remove(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def dump(self) -> dict:
        """Spans as JSON-ready rows [name index, start, end, parent index],
        times in seconds from the first span's start."""
        t0 = self.starts[0] if self.starts else 0.0
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "columns": ["name", "start_s", "end_s", "parent"],
                "spans": [[index[n], s - t0, e - t0, p] for n, s, e, p in
                          zip(self.names, self.starts, self.ends, self.parents)],
                "values": {str(i): list(v) for i, v in self.values.items()}}

    def sweep_metrics(self, lo: int, hi: int, trials: int) -> dict:
        """Per-layer metrics of the traced sweep whose spans are lo..hi-1.

        Span lo is the sweep's root. Raises ValueError if self times do
        not add up to the root's duration, which would mean broken nesting,
        or if more than the stated remainder falls outside every layer.
        """
        dur = [self.ends[i] - self.starts[i] for i in range(lo, hi)]
        own = list(dur)
        for k, i in enumerate(range(lo, hi)):
            p = self.parents[i]
            if p >= lo:
                own[p - lo] -= dur[k]
        buckets: dict[str, float] = {}
        counts: dict[str, int] = {}
        for k, i in enumerate(range(lo, hi)):
            name = self.names[i]
            bucket = BUCKET[name]
            buckets[bucket] = buckets.get(bucket, 0.0) + own[k]
            counts[name] = counts.get(name, 0) + 1
        wall = dur[0]
        if abs(sum(buckets.values()) - wall) > 1e-9 * max(wall, 1.0):
            raise ValueError("span self times do not sum to the traced wall time")
        unattributed = buckets.get("unattributed", 0.0)
        if unattributed > max(UNATTRIBUTED_SHARE * wall, UNATTRIBUTED_FLOOR_S):
            raise ValueError(f"{unattributed:.4f} s of a {wall:.4f} s sweep is outside "
                             "every named layer")

        points = rows_points = filled = requested = 0
        for i, v in self.values.items():
            if lo <= i < hi:
                if self.names[i] == "experiments.pick_peaks":
                    filled += v[0]
                    requested += v[1]
                else:
                    points += v[0]
                    rows_points += v[0] * v[1]

        def b(bucket):
            return buckets.get(bucket, 0.0)

        def per_trial(x):
            return x / trials

        return {
            "estimators.scan_s": per_trial(b("estimators.scan")),
            "estimators.scan_points": per_trial(points),
            "estimators.scan_bytes": per_trial(16 * rows_points),
            "estimators.lag_average_s": per_trial(b("estimators.lag_average")),
            "geometry.is_perfect_calls": per_trial(counts.get("estimators.is_perfect", 0)),
            "estimators.eigh_s": per_trial(b("estimators.eigh")),
            "estimators.peaks_s": per_trial(b("estimators.peaks")),
            "estimators.fill_ratio": filled / requested if requested else 0.0,
            "experiments.engine_build_s": b("experiments.engine_build"),
            "experiments.engine_builds": sum(counts.get(n, 0) for n in ENGINE_BUILDERS),
            "experiments.trial_overhead_s": per_trial(b("experiments.trial_overhead")),
            "experiments.trials": trials,
            "patterns.perturb_s": per_trial(b("patterns.perturb")),
            "patterns.perturb_calls": per_trial(counts.get("experiments.perturb", 0)),
            "manifold.synth_s": per_trial(b("manifold.synth")),
            "manifold.covariance_s": per_trial(b("manifold.covariance")),
            "config.parse_s": b("config.parse"),
            "config.write_s": b("config.write"),
            "svgplot.render_s": b("svgplot.render"),
            "trace.unattributed_ratio": unattributed / wall,
        }
