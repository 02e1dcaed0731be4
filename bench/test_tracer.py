"""Tests of the benchmark's tracer.  Run with ``python3 -m pytest bench -q``."""

import importlib
import json
import pkgutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import qrecovery  # noqa: E402
import tracer  # noqa: E402


def _import_all():
    for info in pkgutil.iter_modules(qrecovery.__path__):
        importlib.import_module(f"qrecovery.{info.name}")
    return [m for n, m in sys.modules.items() if n == "qrecovery" or n.startswith("qrecovery.")]


def _originals(specs):
    out = {}
    for t in specs:
        mod_name, _, cls_name = t.owner.partition(":")
        owner = sys.modules[mod_name]
        if cls_name:
            out[(t.owner, t.attr)] = vars(getattr(owner, cls_name))[t.attr]
        else:
            out[(t.owner, t.attr)] = getattr(owner, t.attr)
    return out


def test_install_leaves_no_unwrapped_binding():
    modules = _import_all()
    specs = tracer.targets()
    originals = _originals(specs)
    ids = {id(f) for f in originals.values()}
    # `from ... import` copies bindings, so there are more than one per function
    bound = sum(1 for m in modules for v in vars(m).values() if id(v) in ids)
    assert bound > len([t for t in specs if ":" not in t.owner and t.owner.startswith("qrecovery")])

    tr = tracer.Tracer()
    tr.install(specs)
    try:
        for m in modules:
            for name, value in vars(m).items():
                assert id(value) not in ids, f"{m.__name__}.{name} is still unwrapped"
        for (owner, attr), fn in _originals(specs).items():
            assert getattr(fn, "__wrapped_by_tracer__", False), f"{owner}.{attr} is not wrapped"
    finally:
        tr.uninstall()
    assert _originals(specs) == originals


def test_self_time_of_nested_spans():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))

    leaf_w = tr.wrap(lambda: None, "leaf")
    inner_w = tr.wrap(lambda: (leaf_w(), None)[1], "inner")
    outer_w = tr.wrap(lambda: (inner_w(), inner_w())[1], "outer")
    outer_w()
    # clock: outer 0..9; inner 1..4 and 5..8; leaf 2..3 and 6..7
    agg = tr.aggregate()
    assert agg["outer"] == {"calls": 1, "wall_s": 9.0, "self_s": 3.0, "work": 0.0}
    assert agg["inner"] == {"calls": 2, "wall_s": 6.0, "self_s": 4.0, "work": 0.0}
    assert agg["leaf"] == {"calls": 2, "wall_s": 2.0, "self_s": 2.0, "work": 0.0}


def test_work_counts_and_exceptions_close_spans():
    tr = tracer.Tracer()
    sized = tr.wrap(lambda n: list(range(n)), "sized", lambda a, k, r: len(r))
    assert sized(3) == [0, 1, 2]
    sized(4)

    def boom():
        raise ValueError("x")

    boom_w = tr.wrap(boom, "boom")
    try:
        boom_w()
    except ValueError:
        pass
    sized(1)
    agg = tr.aggregate()
    assert agg["sized"]["calls"] == 3 and agg["sized"]["work"] == 8.0
    assert agg["boom"]["calls"] == 1
    assert (tr.arrays()["parent"] == -1).all()


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert listed == [(n, tracer.metric_unit(n)) for n in tracer.metric_names()]
    _import_all()
    spans = {t.span for t in tracer.targets() if isinstance(t.span, str)}
    spans |= {f"campaigns.suite.{s}" for s in qrecovery.campaigns.SUITES}
    assert set(tracer.METRICS) == spans


def test_traced_report_bytes_match_untraced(tmp_path):
    from qrecovery import cli

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": {s: 1 for s in qrecovery.campaigns.SUITES},
                               "bosonic_n_max": 16, "quad_nodes": 11}))
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    cli.main(["verify", "all", "--config", str(cfg), "--out", str(plain)])
    tr = tracer.Tracer()
    tr.install(tracer.targets())
    try:
        cli.main(["verify", "all", "--config", str(cfg), "--out", str(traced)])
    finally:
        tr.uninstall()
    assert plain.read_bytes() == traced.read_bytes()
    metrics = tracer.layer_metrics(tr.aggregate())
    assert metrics["reports.write_json.bytes"] == plain.stat().st_size
    assert metrics["linalg.eigh.calls"] > metrics["matfun.eig_hermitian.calls"] > 0
    assert all(metrics[f"campaigns.suite.{s}.wall_s"] > 0 for s in qrecovery.campaigns.SUITES)
