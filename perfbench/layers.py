"""Per-layer metrics and the per-kernel table, derived from traced spans.

Self time is a span's duration minus the durations of its direct children.
Counts marked "computed" come from array shapes recorded on entry, so they
repeat exactly for the same code and inputs.
"""

from __future__ import annotations

import numpy as np

from tracer import LAYERS

TRANSFORMS = ("spectral.values_to_coeffs", "spectral.coeffs_to_values")
POINTWISE = ("spectral.apply_pointwise_matrix", "spectral.pointwise_product")
SPACETIME_NORMS = ("spacetime.xnorm", "spacetime.snorm", "spacetime.ynorm",
                   "spacetime.mixed_norm", "spacetime.mixed_norm_values")
TRACE_WRITES = ("traceio.write_trace", "traceio.atomic_write_json",
                "traceio.atomic_write_text", "traceio._atomic_write_bytes",
                "traceio.sidecar_path")

# counts that must repeat exactly between runs of the same code
COMPUTED_COUNTS = ("spectral.fft_points", "spacetime.phase_elements",
                   "solver.retarded_elements", "solver.rk4_substeps",
                   "estimates.samples", "traceio.bytes_written")

# per-kernel table: (row label, function) at the grid sizes the ROADMAP names
KERNELS = (
    ("values_to_coeffs", "spectral.values_to_coeffs"),
    ("coeffs_to_values", "spectral.coeffs_to_values"),
    ("apply_pointwise_matrix", "spectral.apply_pointwise_matrix"),
    ("pointwise_product", "spectral.pointwise_product"),
    ("free_evolution", "spacetime.free_evolution"),
    ("retarded_integral", "solver.retarded_integral"),
    ("mixed_norm_values", "spacetime.mixed_norm_values"),
    ("picard_iteration", "solver.duhamel_map"),
)
KERNEL_SIZES = (256, 512, 1024, 4096)


class Spans:
    """Span columns plus the derived per-span durations and self times."""

    def __init__(self, cols, names):
        self.names = list(names)
        self.parent = cols["parent"]
        self.fn = cols["fn"]
        self.t0 = cols["t0"]
        self.t1 = cols["t1"]
        self.a = cols["a"]
        self.b = cols["b"]
        self.dur = self.t1 - self.t0
        n = self.dur.size
        nested = self.parent >= 0
        children = np.bincount(self.parent[nested], weights=self.dur[nested],
                               minlength=n) if n else np.zeros(0)
        self.self_t = self.dur - children
        codes = {name: i for i, name in enumerate(self.names)}
        self._codes = codes
        layer_of = np.array([LAYERS.index(name.split(".")[0]) for name in self.names])
        self.layer = layer_of[self.fn] if n else np.zeros(0, dtype=int)
        parent_layer = np.full(n, -1)
        parent_layer[nested] = self.layer[self.parent[nested]]
        self.parent_layer = parent_layer

    def mask(self, *functions):
        codes = [self._codes[f] for f in functions if f in self._codes]
        return np.isin(self.fn, codes)

    def layer_mask(self, layer):
        return self.layer == LAYERS.index(layer)

    def inside(self, inner, outer):
        """Mask of spans in ``inner`` that run within an ``outer`` span.

        The program is single-threaded, so lying inside an outer span's
        interval is the same as having it as an ancestor.
        """
        starts, ends = self.t0[outer], self.t1[outer]
        order = np.argsort(starts)
        starts, ends = starts[order], ends[order]
        idx = np.searchsorted(starts, self.t0, side="right") - 1
        ok = idx >= 0
        hit = np.zeros(self.t0.size, dtype=bool)
        hit[ok] = self.t0[ok] < ends[idx[ok]]
        return inner & hit


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def layer_metrics(spans: Spans, traced_run_s: float) -> dict:
    """Every per-layer metric as {name: (value, unit)}."""
    s = spans
    m = {}

    def self_time(mask):
        return float(np.sum(s.self_t[mask]))

    def count(mask):
        return int(np.count_nonzero(mask))

    def total(col, mask):
        return int(np.sum(col[mask]))

    tr = s.mask(*TRANSFORMS)
    m["spectral.transform_calls"] = (count(tr), "count")
    m["spectral.transform_rows"] = (total(s.a, tr), "count")
    m["spectral.fft_points"] = (int(np.sum(s.a[tr] * s.b[tr])), "count")
    m["spectral.transform_s"] = (self_time(tr), "s")
    pw = s.mask(*POINTWISE)
    m["spectral.pointwise_calls"] = (count(pw), "count")
    m["spectral.pointwise_rows"] = (total(s.a, pw), "count")
    m["spectral.pointwise_s"] = (self_time(pw), "s")
    m["spectral.rows_per_pointwise_call"] = (_ratio(total(s.a, pw), count(pw)), "rows/call")
    fld = s.mask("spectral.SpectralField.__post_init__")
    m["spectral.fields_built"] = (count(fld), "count")
    m["spectral.field_s"] = (self_time(fld), "s")
    m["spectral.self_s"] = (self_time(s.layer_mask("spectral")), "s")

    fe = s.mask("spacetime.free_evolution")
    m["spacetime.free_evolution_calls"] = (count(fe), "count")
    m["spacetime.phase_elements"] = (int(np.sum(s.a[fe] * s.b[fe])), "count")
    m["spacetime.free_evolution_s"] = (self_time(fe), "s")
    nrm = s.mask(*SPACETIME_NORMS)
    outer_norm = nrm & ~np.isin(s.parent, np.flatnonzero(nrm))
    m["spacetime.norm_calls"] = (count(outer_norm), "count")
    m["spacetime.norm_s"] = (self_time(nrm), "s")
    m["spacetime.self_s"] = (self_time(s.layer_mask("spacetime")), "s")

    picard = s.mask("solver.picard_solve")
    m["solver.picard_solves"] = (count(picard), "count")
    duh = s.mask("solver.duhamel_map")
    m["solver.picard_iterations"] = (count(duh), "count")
    m["solver.duhamel_s"] = (self_time(duh), "s")
    ret = s.mask("solver.retarded_integral")
    m["solver.retarded_calls"] = (count(ret), "count")
    m["solver.retarded_elements"] = (int(np.sum(s.a[ret] * s.b[ret])), "count")
    m["solver.retarded_s"] = (self_time(ret), "s")
    ref = s.mask("solver.reference_solve")
    flux_calls = count(s.inside(s.mask("spectral.apply_pointwise_matrix"), ref))
    m["solver.rk4_substeps"] = (flux_calls // 4, "count")
    m["solver.reference_s"] = (self_time(ref), "s")
    en = s.mask("solver.energy")
    m["solver.energy_calls"] = (count(en), "count")
    m["solver.energy_s"] = (self_time(en), "s")
    m["solver.diagnostics_s"] = (self_time(s.mask("solver.solve_diagnostics")), "s")
    glued = s.mask("solver.glued_solve")
    segments = total(s.a, glued)
    attempts = count(s.inside(picard, glued))
    m["solver.segments"] = (segments, "count")
    m["solver.segment_attempts"] = (attempts, "count")
    m["solver.segment_accept_ratio"] = (_ratio(segments, attempts), "ratio")
    m["solver.self_s"] = (self_time(s.layer_mask("solver")), "s")

    norms = s.layer_mask("norms")
    m["norms.calls"] = (count(norms & (s.parent_layer != LAYERS.index("norms"))), "count")
    m["norms.s"] = (self_time(norms), "s")

    ens = s.mask("estimates._ensemble")
    samples = total(s.a, ens)
    m["estimates.samples"] = (samples, "count")
    m["estimates.legs"] = (count(ens), "count")
    m["estimates.verify_s"] = (self_time(s.layer_mask("estimates")), "s")
    verify_total = float(np.sum(s.dur[s.mask("estimates.verify")]))
    m["estimates.sample_ms"] = (1e3 * _ratio(verify_total, samples), "ms")

    m["diagnostics.scattering_s"] = (self_time(s.mask("diagnostics.scattering_state")), "s")
    m["diagnostics.monitor_s"] = (self_time(s.mask("diagnostics.monitor")), "s")
    m["diagnostics.threshold_s"] = (
        self_time(s.mask("diagnostics.nonpositive_energy_amplitude")), "s")
    m["diagnostics.self_s"] = (self_time(s.layer_mask("diagnostics")), "s")

    m["traceio.bytes_written"] = (total(s.a, s.mask("traceio._atomic_write_bytes")), "B")
    m["traceio.write_s"] = (self_time(s.mask(*TRACE_WRITES)), "s")
    rd = s.mask("traceio.read_trace")
    m["traceio.bytes_read"] = (total(s.a, rd), "B")
    m["traceio.read_s"] = (self_time(rd), "s")

    m["cli.configs"] = (count(s.mask("cli.main")), "count")
    m["cli.self_s"] = (self_time(s.layer_mask("cli")), "s")

    top = float(np.sum(s.dur[s.parent < 0]))
    m["bench.layer_coverage"] = (_ratio(top, traced_run_s), "ratio")
    m["bench.traced_run_s"] = (traced_run_s, "s")
    return m


def kernel_table(spans: Spans) -> list:
    """Mean inclusive time per call for each ROADMAP kernel and grid size."""
    s = spans
    rows = []
    for label, fn in KERNELS:
        sel = s.mask(fn)
        for n in KERNEL_SIZES:
            hit = sel & (s.b == n)
            calls = int(np.count_nonzero(hit))
            if calls:
                rows.append({"kernel": label, "N": n, "calls": calls,
                             "rows_per_call": float(np.mean(s.a[hit])),
                             "mean_ms": 1e3 * float(np.mean(s.dur[hit]))})
    ref = s.mask("solver.reference_solve")
    flux = s.inside(s.mask("spectral.apply_pointwise_matrix"), ref)
    for n in KERNEL_SIZES:
        hit = ref & (s.b == n)
        substeps = int(np.count_nonzero(flux & (s.b == n))) // 4
        if substeps:
            rows.append({"kernel": "rk4_substep", "N": n, "calls": substeps,
                         "rows_per_call": 1.0,
                         "mean_ms": 1e3 * float(np.sum(s.dur[hit])) / substeps})
    return rows


def format_kernel_table(rows) -> str:
    lines = [f"{'kernel':<24}{'N':>6}{'calls':>9}{'rows/call':>11}{'mean_ms':>12}"]
    for r in rows:
        lines.append(f"{r['kernel']:<24}{r['N']:>6}{r['calls']:>9}"
                     f"{r['rows_per_call']:>11.1f}{r['mean_ms']:>12.4f}")
    return "\n".join(lines)
