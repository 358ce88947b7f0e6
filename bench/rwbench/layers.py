"""The per-layer metrics of the traced mode: names, units, better direction, values.

``PER_LAYER`` is the single list of per-layer metrics; BENCHMARK.json repeats
it, and the self-check compares the two.
"""

from __future__ import annotations

from .hooks import RANKSUPPORT_FUNCTIONS, WEIGHT_FUNCTIONS, WITNESS_PATHS

CHECK_NAMES = ("equivdef", "witness", "delsarte", "closure", "closure_pair", "trace")


def _table():
    rows = []
    for op in ("mul", "add", "inv"):
        rows.append((f"fields.{op}.calls", "count", "lower"))
    for op in ("mul", "add", "inv"):
        rows.append((f"fields.{op}.ns", "ns", "lower"))
    rows += [("fields.make_tower.calls", "count", "lower"),
             ("fields.make_tower.self_s", "s", "lower"),
             ("polys.self_s", "s", "lower"),
             ("linalg.reduce.calls", "count", "lower"),
             ("linalg.reduce.rows", "count", "lower"),
             ("linalg.reduce.self_s", "s", "lower")]
    for part in ("kernel", "intersection", "contains"):
        rows.append((f"linalg.{part}.calls", "count", "lower"))
        rows.append((f"linalg.{part}.self_s", "s", "lower"))
    rows += [("linalg.enumerate.yielded", "count", "lower"),
             ("linalg.enumerate.self_s", "s", "lower")]
    for fn in RANKSUPPORT_FUNCTIONS:
        rows.append((f"ranksupport.{fn}.calls", "count", "lower"))
        rows.append((f"ranksupport.{fn}.self_s", "s", "lower"))
    rows.append(("ranksupport.restriction.per_code", "calls/code", "lower"))
    for fn in WEIGHT_FUNCTIONS:
        rows.append((f"weights.{fn}.calls", "count", "lower"))
        rows.append((f"weights.{fn}.self_s", "s", "lower"))
    for path in WITNESS_PATHS + ("none",):
        better = "higher" if path in ("extended", "split") else "lower"
        rows.append((f"weights.witness_path.{path}", "count", better))
    rows += [("weights.verify_witness.accept_ratio", "ratio", "higher"),
             ("documents.parse.calls", "count", "lower"),
             ("documents.parse.self_s", "s", "lower"),
             ("documents.render.self_s", "s", "lower"),
             ("verify.items", "count", "higher")]
    for name in CHECK_NAMES:
        rows.append((f"verify.check.{name}.self_s", "s", "lower"))
    rows += [("verify.population.self_s", "s", "lower"),
             ("verify.pool.starts", "count", "lower"),
             ("verify.pool.overhead_s", "s", "lower"),
             ("cli.main.calls", "count", "lower"),
             ("cli.main.self_s", "s", "lower")]
    return rows


PER_LAYER = _table()


def layer_values(spans, counts, field_ns, codes: int) -> dict:
    """Metric name -> value, from the span pass, the counting pass and the field timings."""
    values = {}
    for op in ("mul", "add", "inv"):
        values[f"fields.{op}.calls"] = counts.counters[f"fields.{op}.calls"]
        values[f"fields.{op}.ns"] = field_ns[op]
    for name, unit, _ in PER_LAYER:
        if name in values:
            continue
        stem, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = spans.calls[stem]
        elif kind == "self_s":
            values[name] = spans.self_s[stem]
        elif name == "verify.pool.overhead_s":
            values[name] = spans.seconds["verify.pool.overhead"]
        elif kind in ("rows", "yielded") or name in ("verify.items", "verify.pool.starts") \
                or stem == "weights.witness_path":
            values[name] = spans.counters[name]
    values["ranksupport.restriction.per_code"] = spans.calls["ranksupport.restriction"] / codes
    calls = spans.calls["weights.verify_witness"]
    accepted = spans.counters["weights.verify_witness.accepted"]
    values["weights.verify_witness.accept_ratio"] = accepted / calls if calls else 0.0
    missing = [name for name, _, _ in PER_LAYER if name not in values]
    if missing:
        raise KeyError(f"per-layer metrics without a value: {missing}")
    return values
