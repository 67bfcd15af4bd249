"""The tracer's self-time arithmetic and its patching of chordkit."""

import importlib
import sys
import types

import numpy as np

import chordkit
from chordkit import model, vocab
from spans import COUNTED, SPANNED, Span, Tracer, layer_totals, self_times


def _bindings():
    """Every function-valued attribute of every loaded chordkit module."""
    return {(name, attr): value
            for name, module in sorted(sys.modules.items())
            if name == "chordkit" or name.startswith("chordkit.")
            for attr, value in vars(module).items()
            if isinstance(value, types.FunctionType)}


def test_self_time_subtracts_children_on_a_hand_built_tree():
    spans = [
        Span("root", "r", None, 0.0, 10.0),
        Span("a", "r", 0, 1.0, 4.0),     # child of root
        Span("a1", "r", 1, 1.5, 2.0),    # grandchild: only a's time
        Span("b", "r", 0, 5.0, 9.0),     # second child of root
        Span("b1", "r", 3, 6.0, 7.0),
        Span("b2", "r", 3, 6.5, 8.0),    # overlaps b1: the union counts once
    ]
    assert self_times(spans) == [10.0 - 3.0 - 4.0, 3.0 - 0.5, 0.5, 4.0 - 2.0, 1.0, 1.5]


def test_layer_totals_keep_runs_apart_and_add_counters():
    spans = [Span("x", "op1", None, 0.0, 2.0, work=5.0), Span("x", "op2", None, 0.0, 1.0)]
    totals = layer_totals(spans, {"op1": {"vocab.id_info": 7}}, "op1")
    assert totals == {"x.self_s": 2.0, "x.total_s": 2.0, "x.calls": 1, "vocab.id_info.calls": 7}


def test_tracer_sees_from_imports_and_restores_every_binding():
    before = _bindings()
    v170 = vocab.get_vocabulary(170)
    tracer = Tracer()
    tracer.start("op")
    try:
        # model and the package bind id_info by from-import
        assert model.id_info is not before[("chordkit.vocab", "id_info")]
        assert chordkit.id_info is model.id_info
        targets = model.root_targets(np.array([0, v170.n_id, v170.x_id]), v170)
    finally:
        tracer.stop()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert list(targets) == [0, 12, 13]
    assert tracer.counts["op"]["vocab.id_info"] == 3
    totals = layer_totals(tracer.spans, tracer.counts, "op")
    assert totals["model.root_targets.calls"] == 1
    assert totals["model.root_targets.rows"] == 3


def test_every_named_function_exists():
    for table in (SPANNED, COUNTED):
        for module_name, functions in table.items():
            module = importlib.import_module(f"chordkit.{module_name}")
            for fn_name in functions:
                assert callable(getattr(module, fn_name)), (module_name, fn_name)
