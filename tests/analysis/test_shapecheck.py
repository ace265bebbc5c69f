"""Unit tests for the symbolic shape/dtype interpreter.

Covers the abstract domain (``Dim`` symbols, ``AbstractTensor`` ops and
their hazard emissions), the function-patching context manager, and
:func:`analyze_forward` run against every real architecture — the
per-model expectations here are the ground truth the fastpath baseline
is built on.
"""

import numpy as np
import pytest

import repro.autodiff as ad
import repro.autodiff.functional as functional
import repro.autodiff.tensor as tensor_mod
from repro.analysis.fastpath import PROBE_CONFIG, probe_adjacency
from repro.analysis.shapecheck import (AbstractExecutionError, AbstractArray,
                                       AbstractTensor, Dim, _Ctx,
                                       _patched_functions, analyze_forward,
                                       symbolic_input)
from repro.models import create_model


class TestDim:
    def test_is_an_int_with_a_symbol(self):
        b = Dim(7, "B")
        assert isinstance(b, int)
        assert b == 7
        assert repr(b) == "B"

    def test_unnamed_dim_reprs_as_int(self):
        assert repr(Dim(3)) == "3"

    def test_arithmetic_degrades_to_plain_int(self):
        b = Dim(7, "B")
        assert b + 1 == 8
        assert repr(b + 1) == "8"

    def test_usable_as_numpy_shape(self):
        arr = np.zeros((Dim(2, "B"), Dim(3, "V")))
        assert arr.shape == (2, 3)


class TestSymbolicInput:
    def test_shape_is_tagged_b_l_v(self):
        ctx = _Ctx()
        x = symbolic_input(7, 5, 6, np.float64, ctx)
        assert tuple(map(int, x.shape)) == (7, 5, 6)
        assert [repr(d) for d in x.shape] == ["B", "L", "V"]
        assert not x.requires_grad


def make_pair(ctx, a_shape, b_shape, dtype=np.float64):
    a = AbstractTensor(a_shape, dtype, True, ctx)
    b = AbstractTensor(b_shape, dtype, True, ctx)
    return a, b


class TestAbstractTensorHazards:
    def test_matmul_1d_operand_flags_repro009(self):
        ctx = _Ctx()
        a, b = make_pair(ctx, (4, 3), (3,))
        out = a @ b
        assert tuple(map(int, out.shape)) == (4,)
        assert [h.key for h in ctx.hazards] == ["matmul-1d"]
        assert ctx.hazards[0].code == "REPRO009"

    def test_2d_matmul_is_clean(self):
        ctx = _Ctx()
        a, b = make_pair(ctx, (4, 3), (3, 2))
        out = a @ b
        assert tuple(map(int, out.shape)) == (4, 2)
        assert not ctx.hazards

    def test_matmul_without_grad_is_not_a_trace_hazard(self):
        # The JIT only verifies the captured (grad-bearing) tape.
        ctx = _Ctx()
        a = AbstractTensor((4, 3), np.float64, False, ctx)
        b = AbstractTensor((3,), np.float64, False, ctx)
        a @ b
        assert not ctx.hazards

    def test_fancy_integer_indexing_flags_repro008(self):
        ctx = _Ctx()
        x = AbstractTensor((5, 4), np.float64, True, ctx)
        out = x[[0, 2, 4]]
        assert tuple(map(int, out.shape)) == (3, 4)
        assert [h.key for h in ctx.hazards] == ["getitem-fancy"]
        assert ctx.hazards[0].code == "REPRO008"

    def test_basic_slicing_is_clean(self):
        ctx = _Ctx()
        x = AbstractTensor((5, 4), np.float64, True, ctx)
        out = x[1:3, ::2]
        assert tuple(map(int, out.shape)) == (2, 2)
        assert not ctx.hazards

    def test_indexing_with_abstract_array_aborts(self):
        ctx = _Ctx()
        x = AbstractTensor((5, 4), np.float64, True, ctx)
        order = x.data.max(axis=1)  # data-dependent values
        with pytest.raises(AbstractExecutionError):
            x[order]
        assert [h.key for h in ctx.hazards] == ["getitem-fancy"]

    @pytest.mark.parametrize("method,args,key", [
        ("unfold_time", (2,), "op-unsupported"),
        ("clip", (-1.0, 1.0), "op-unsupported"),
    ])
    def test_unreplayable_methods_flag_repro010(self, method, args, key):
        ctx = _Ctx()
        x = AbstractTensor((2, 6), np.float64, True, ctx)
        getattr(x, method)(*args)
        assert [h.key for h in ctx.hazards] == [key]
        assert ctx.hazards[0].code == "REPRO010"
        assert ctx.hazards[0].op == method

    def test_reshape_minus_one_resolves(self):
        ctx = _Ctx()
        x = AbstractTensor((Dim(2, "B"), 3, 4), np.float64, True, ctx)
        out = x.reshape(-1)
        assert tuple(map(int, out.shape)) == (24,)
        assert not ctx.hazards  # reshape itself replays fine

    def test_transpose_normalizes_negative_axes(self):
        ctx = _Ctx()
        x = AbstractTensor((2, 3, 4), np.float64, True, ctx)
        assert tuple(map(int, x.transpose(1, 0, -1).shape)) == (3, 2, 4)
        with pytest.raises(ValueError, match="repeat an axis"):
            x.transpose(0, -3, 1)
        with pytest.raises(ValueError, match="out of range"):
            x.transpose(0, 1, 3)

    def test_composites_lower_without_hazards(self):
        ctx = _Ctx()
        x = AbstractTensor((3, 4), np.float64, True, ctx)
        y = ((x - 1.0) * 2.0).mean()
        assert y.ndim == 0
        assert not ctx.hazards


class TestAbstractArray:
    def test_data_view_is_data_dependent(self):
        ctx = _Ctx()
        x = AbstractTensor((3, 4), np.float64, True, ctx)
        assert isinstance(x.data, AbstractArray)
        assert x.data.data_dependent

    def test_materialization_is_refused(self):
        ctx = _Ctx()
        x = AbstractTensor((3, 4), np.float64, True, ctx)
        with pytest.raises(AbstractExecutionError):
            np.asarray(x.data)

    def test_comparison_yields_boolean_abstract_array(self):
        ctx = _Ctx()
        x = AbstractTensor((3, 4), np.float64, True, ctx)
        mask = x.data > 0.5
        assert isinstance(mask, AbstractArray)
        assert mask.dtype == np.bool_
        assert mask.data_dependent


class TestPatchedFunctions:
    MODULES = (tensor_mod, ad, functional)

    def snapshot(self):
        return {(m.__name__, name): getattr(m, name, None)
                for m in self.MODULES
                for name in ("where", "concat", "stack",
                             "softmax", "log_softmax")}

    def test_patches_are_installed_and_restored(self):
        before = self.snapshot()
        ctx = _Ctx()
        with _patched_functions(ctx):
            assert tensor_mod.where is not before[("repro.autodiff.tensor",
                                                   "where")]
            # Re-exports patched too (matched by identity).
            assert ad.where is tensor_mod.where
        assert self.snapshot() == before

    def test_restored_even_when_body_raises(self):
        before = self.snapshot()
        with pytest.raises(RuntimeError, match="boom"):
            with _patched_functions(_Ctx()):
                raise RuntimeError("boom")
        assert self.snapshot() == before

    def test_patched_where_passes_through_concrete_values(self):
        with _patched_functions(_Ctx()):
            out = ad.where(np.array([True, False]),
                           ad.Tensor([1.0, 1.0]), ad.Tensor([2.0, 2.0]))
        assert isinstance(out, ad.Tensor)
        np.testing.assert_array_equal(out.data, [1.0, 2.0])

    def test_patched_where_flags_data_dependent_condition(self):
        ctx = _Ctx()
        with _patched_functions(ctx):
            x = AbstractTensor((3,), np.float64, True, ctx)
            ad.where(x.data > 0, x, -x)
        assert [h.key for h in ctx.hazards] == ["where-data-dependent"]
        assert ctx.hazards[0].code == "REPRO007"


def probe(name, seq_len=5, num_variables=6):
    return create_model(name, num_variables, seq_len,
                        adjacency=probe_adjacency(num_variables),
                        config=PROBE_CONFIG, seed=0)


def hazard_keys(analysis):
    return {h.key for h in analysis.hazards}


class TestAnalyzeForward:
    """Ground truth for the registry verdicts, model by model."""

    @pytest.mark.parametrize("name", ["lstm", "tgcn", "a3tgcn"])
    def test_recurrent_models_are_clean_under_mse(self, name):
        analysis = analyze_forward(probe(name), loss="mse")
        assert analysis.hazards == ()
        assert tuple(map(int, analysis.output_shape)) == (7, 6)

    def test_astgcn_hits_matmul_1d_and_unreplayable_ops(self):
        analysis = analyze_forward(probe("astgcn"), loss="mse")
        keys = hazard_keys(analysis)
        assert "matmul-1d" in keys
        assert "op-unsupported" in keys

    def test_mtgnn_hits_unstable_topk_constant(self):
        analysis = analyze_forward(probe("mtgnn"), loss="mse")
        keys = hazard_keys(analysis)
        # Learned-graph top-k mask drifts between (perturbed) epochs ...
        assert "const-value-changed" in keys
        # ... and the temporal convolutions have no replay rule.
        assert "op-unsupported" in keys

    def test_huber_loss_injects_data_dependent_where(self):
        clean = analyze_forward(probe("lstm"), loss="mse")
        assert clean.hazards == ()
        flagged = analyze_forward(probe("lstm"), loss="huber")
        assert "where-data-dependent" in hazard_keys(flagged)

    def test_loss_none_skips_the_loss_tail(self):
        analysis = analyze_forward(probe("lstm"), loss=None)
        assert analysis.hazards == ()

    def test_unknown_loss_is_rejected(self):
        with pytest.raises(ValueError, match="unknown loss"):
            analyze_forward(probe("lstm"), loss="quantile")

    def test_events_record_the_op_stream(self):
        analysis = analyze_forward(probe("lstm"), loss="mse")
        assert analysis.events
        names = {event.name for event in analysis.events}
        assert "__matmul__" in names

    def test_hazard_hits_serialize(self):
        analysis = analyze_forward(probe("astgcn"), loss="mse")
        for hit in analysis.hazards:
            d = hit.to_dict()
            assert d["key"] == hit.key and d["code"] == hit.code
