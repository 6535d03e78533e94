"""Names, units and computation of the per-layer metrics of a traced run.

Counts and self times are means per traced op; operand sizes are maxima
over the traced ops.  ``PER_LAYER`` is the list BENCHMARK.json declares.
"""

from __future__ import annotations

import statistics

# suites of antikahler.verifier.list_suites() when the benchmark was defined
SUITES = (
    "neutral_signature", "complexified_form", "group_equality", "nabla_j_symmetric",
    "epsilon_parallelism", "connection_rules", "bi_invariant_j_anti_kahler",
    "killing_metric_einstein", "abelian_j_obstructions", "abelian_implies_flat",
    "worked_example_n7", "theta_iff_antikahler", "dim4_classification",
    "case2_moduli", "case2_curvature", "twin_metric", "curvature_purity",
    "integrability", "koszul_laws",
)

# span names reported as ".calls" (calls per op) and/or ".self_ms" (ms per op)
CALLS_AND_SELF = (
    "textio.parse_structure",
    "scalars.inverse", "scalars.det", "scalars.rank", "scalars.nullspace",
    "scalars.signature", "scalars.matmul",
    "classify4.classify", "classify4.normalize_basis", "classify4.verify_isomorphism",
    "catalog.get",
)
SELF_ONLY = (
    "cli.main",
    "liealg.from_brackets", "liealg.nijenhuis", "liealg.killing_form",
    "geometry.structure_init", "geometry.ricci", "geometry.curvature_is_pure",
    "theta.connection_form", "theta.bracket_form",
)
CALLS_SELF_BUILDS = ("geometry.levi_civita", "geometry.curvature")


def _declared():
    out = [("cli.import_ms", "ms")]
    for name in CALLS_AND_SELF:
        out += [(f"{name}.calls", "calls/op"), (f"{name}.self_ms", "ms/op")]
    for name in SELF_ONLY:
        out.append((f"{name}.self_ms", "ms/op"))
    for name in CALLS_SELF_BUILDS:
        out += [(f"{name}.calls", "calls/op"), (f"{name}.self_ms", "ms/op"),
                (f"{name}.builds", "builds/op")]
    out += [
        ("geometry.curvature.builds_per_command", "builds/cmd"),
        ("geometry.memo_hit_ratio", "ratio"),
        ("geometry.g_den_bits", "bits"),
        ("geometry.gamma_den_bits", "bits"),
        ("geometry.riemann_den_bits", "bits"),
        ("classify4.normalize_basis.failures", "count/op"),
    ]
    out += [(f"verifier.suite.{suite}.wall_ms", "ms") for suite in SUITES]
    out += [
        ("verifier.checks", "checks/op"),
        ("verifier.random_invertible_matrix.accept_ratio", "ratio"),
        ("trace.overhead_ops_per_s", "1/s"),
    ]
    return tuple(out)


PER_LAYER = _declared()


def per_layer(aggregate: dict, traced_ops: int, untraced_ops_per_s: float,
              traced_ops_per_s: float, import_ms: float) -> dict:
    """Per-layer metrics from a merged tracer aggregate."""
    calls = aggregate.get("calls", {})
    self_ns = aggregate.get("self_ns", {})
    counts = aggregate.get("counts", {})
    maxima = aggregate.get("maxima", {})
    walls = aggregate.get("suite_wall_ns", {})
    per_op = 1.0 / traced_ops

    def ratio(num, den):
        return num / den if den else 0.0

    values = {"cli.import_ms": import_ms}
    for name in CALLS_AND_SELF + SELF_ONLY + CALLS_SELF_BUILDS:
        values[f"{name}.calls"] = calls.get(name, 0) * per_op
        values[f"{name}.self_ms"] = self_ns.get(name, 0) * 1e-6 * per_op
    for name in CALLS_SELF_BUILDS:
        values[f"{name}.builds"] = counts.get(f"{name}.builds", 0) * per_op
    values["geometry.curvature.builds_per_command"] = ratio(
        counts.get("geometry.curvature.builds_in_curvature_cmd", 0),
        counts.get("cli.commands.curvature", 0))
    hits = counts.get("geometry.memo.hits", 0)
    values["geometry.memo_hit_ratio"] = ratio(hits, hits + counts.get("geometry.memo.misses", 0))
    for key in ("g", "gamma", "riemann"):
        values[f"geometry.{key}_den_bits"] = maxima.get(f"geometry.{key}_den_bits", 0)
    values["classify4.normalize_basis.failures"] = (
        counts.get("classify4.normalize_basis.failures", 0) * per_op)
    for suite in SUITES:
        samples = walls.get(suite, [])
        values[f"verifier.suite.{suite}.wall_ms"] = (
            statistics.mean(samples) * 1e-6 if samples else 0.0)
    verify_ops = sum(len(v) for v in walls.values())
    values["verifier.checks"] = ratio(counts.get("verifier.checks", 0), verify_ops)
    values["verifier.random_invertible_matrix.accept_ratio"] = ratio(
        counts.get("verifier.rim.cells", 0), counts.get("verifier.rim.draws", 0))
    values["trace.overhead_ops_per_s"] = traced_ops_per_s - untraced_ops_per_s
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
