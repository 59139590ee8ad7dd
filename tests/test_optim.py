"""The blocked AdamW step against the whole-array oracle, bit for bit."""
import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acadsearch import optim
from acadsearch.optim import AdamW
from oracles import NaiveAdamW, same_bits


# block sizes for the row form: one-element blocks, ragged ones and the default
_BLOCKS = [1, 5, 7, optim._BLOCK]


def _settled(opt, param):
    """``param`` with every row ``opt`` lags settled, in a copy: the optimizer
    and the parameter themselves stay as they are."""
    param = param.copy()
    copy.deepcopy(opt).settle(param)
    return param


def _run_pair(param, grads, monkeypatch, block, **kwargs):
    """(blocked optimizer, its param), (oracle, its param) after every grad."""
    monkeypatch.setattr(optim, "_BLOCK", block)
    blocked = AdamW(param.shape, dtype=param.dtype, **kwargs)
    naive = NaiveAdamW(param.shape, dtype=param.dtype, **kwargs)
    p_blocked, p_naive = param.copy(), param.copy()
    for grad in grads:
        blocked.step(p_blocked, grad)
        naive.step(p_naive, grad)
    return (blocked, p_blocked), (naive, p_naive)


# (1100, 64) and (70001,) leave a partial last block at the default size;
# block 10 gives one-row blocks for the 2-D shapes and ragged ones for 1-D
@pytest.mark.parametrize("block", [optim._BLOCK, 10])
@pytest.mark.parametrize("shape", [(1100, 64), (70001,), (3, 5)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.01, 0.0])
def test_adamw_matches_whole_array_oracle(monkeypatch, block, shape, dtype,
                                          weight_decay):
    rng = np.random.default_rng(3)
    param = rng.normal(size=shape).astype(dtype)
    grads = []
    for _ in range(4):
        grad = rng.normal(size=shape).astype(dtype)
        grad[::3] = 0.0     # rows that took no gradient this step
        grads.append(grad)
    (blocked, p_blocked), (naive, p_naive) = _run_pair(
        param, grads, monkeypatch, block, lr=0.05, weight_decay=weight_decay)
    assert blocked.t == naive.t == 4
    assert same_bits(p_blocked, p_naive)
    assert same_bits(blocked.m, naive.m)
    assert same_bits(blocked.v, naive.v)
    assert not same_bits(p_blocked, param)


@pytest.mark.parametrize("block", [optim._BLOCK, 24])
def test_adamw_updates_a_view_in_place(monkeypatch, block):
    """The trainable slices of a matrix, as the KG trainer passes them."""
    monkeypatch.setattr(optim, "_BLOCK", block)
    rng = np.random.default_rng(4)
    full = rng.normal(size=(90, 8))
    before = full.copy()
    pre, post = full[:30], full[50:]
    opt_pre, opt_post = AdamW(pre.shape), AdamW(post.shape)
    ref_pre, ref_post = pre.copy(), post.copy()
    naive_pre, naive_post = NaiveAdamW(pre.shape), NaiveAdamW(post.shape)
    for _ in range(3):
        g_pre, g_post = rng.normal(size=pre.shape), rng.normal(size=post.shape)
        opt_pre.step(pre, g_pre)
        opt_post.step(post, g_post)
        naive_pre.step(ref_pre, g_pre)
        naive_post.step(ref_post, g_post)
    assert same_bits(full[:30], ref_pre)
    assert same_bits(full[50:], ref_post)
    assert same_bits(full[30:50], before[30:50])


def _lazy_pair(param, block, weight_decay):
    """A row-form optimizer with ``block`` and its oracle, both lr 0.05."""
    with mock.patch.object(optim, "_BLOCK", block):
        opt = AdamW(param.shape, dtype=param.dtype, lr=0.05,
                    weight_decay=weight_decay)
    return opt, NaiveAdamW(param.shape, dtype=param.dtype, lr=0.05,
                           weight_decay=weight_decay)


def _step_pair(opt, naive, p_rows, p_naive, rows, rng):
    """A random gradient on ``rows``: row form to ``opt``, dense to ``naive``."""
    rows = np.asarray(rows, dtype=np.int64)
    vals = rng.normal(size=(len(rows),) + p_rows.shape[1:]).astype(p_rows.dtype)
    dense = np.zeros_like(p_naive)
    dense[rows] = vals
    opt.step(p_rows, vals, rows=rows)
    naive.step(p_naive, dense)


def _check_rows_form(shape, dtype, block, steps, weight_decay=0.01):
    """Row-sparse steps equal the oracle fed the zero-filled dense gradient.

    ``steps`` lists, per step, the sorted unique rows that take a gradient.
    The parameter lags in the rows that have had none, so it is compared
    settled, in a copy; cold moments are +0.0 in both, so they are compared
    as they are.
    """
    rng = np.random.default_rng(6)
    param = rng.normal(size=shape).astype(dtype)
    opt, naive = _lazy_pair(param, block, weight_decay)
    p_rows, p_naive = param.copy(), param.copy()
    for rows in steps:
        _step_pair(opt, naive, p_rows, p_naive, rows, rng)
        assert same_bits(_settled(opt, p_rows), p_naive)
        assert same_bits(opt.m, naive.m) and same_bits(opt.v, naive.v)
    assert opt.t == naive.t == len(steps)


# 70 rows of 8 in blocks of 24 elements: 3-row blocks, a partial last one
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.01, 0.0])
@pytest.mark.parametrize("steps", [
    [[], []],                                       # no row touched
    [range(70), range(70)],                         # every row
    [[2, 3, 5, 6, 8, 9], [0, 68, 69]],              # across block edges
    [[69], [67, 68, 69], []],                       # only the partial block
], ids=["empty", "all", "edges", "last-block"])
def test_adamw_rows_named_cases(dtype, weight_decay, steps):
    _check_rows_form((70, 8), dtype, 24, steps, weight_decay)


@given(n=st.integers(1, 40), tail=st.sampled_from([(), (1,), (3,)]),
       dtype=st.sampled_from([np.float32, np.float64]),
       block=st.sampled_from(_BLOCKS), data=st.data())
@settings(max_examples=60, deadline=None)
def test_adamw_rows_match_dense_oracle(n, tail, dtype, block, data):
    row_sets = st.sets(st.integers(0, n - 1)).map(sorted)
    steps = data.draw(st.lists(row_sets, min_size=1, max_size=4))
    _check_rows_form((n,) + tail, dtype, block, steps)


@pytest.mark.parametrize("block", _BLOCKS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_settle_keeps_a_negative_zero_weight(block, dtype):
    """A -0.0 weight in a cold row stays -0.0 through the replayed decay.

    ``p * wd`` is -0.0 there and AdamW adds it to +0.0, which gives +0.0;
    without that addition the weight would come out +0.0. A negative
    subnormal whose product underflows to -0.0 keeps its bits too.
    """
    rng = np.random.default_rng(8)
    tiny = np.finfo(dtype).smallest_subnormal
    param = rng.normal(size=(9, 4)).astype(dtype)
    param[7] = (-0.0, -tiny, tiny, -1.0)               # row 7 never takes a gradient
    opt, naive = _lazy_pair(param, block, 0.3)
    p_rows, p_naive = param.copy(), param.copy()
    for rows in ([0, 2], [1, 2, 8], [3]):
        _step_pair(opt, naive, p_rows, p_naive, rows, rng)
    assert same_bits(p_rows[7], param[7])                # lagging, not stepped
    opt.settle(p_rows)
    assert same_bits(p_rows, p_naive)
    assert p_rows[7, 0] == 0.0 and np.signbit(p_rows[7, 0])
    assert same_bits(p_rows[7, 1], -tiny)
    assert p_rows[7, 3] != -1.0
    assert opt.warm.all()


@pytest.mark.parametrize("block", _BLOCKS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_settle_without_weight_decay_replays_nothing(block, dtype):
    rng = np.random.default_rng(9)
    param = rng.normal(size=(11, 3)).astype(dtype)
    param[10, 0] = -0.0
    opt, naive = _lazy_pair(param, block, 0.0)
    p_rows, p_naive = param.copy(), param.copy()
    for rows in ([1, 4], [4, 5], [0]):
        _step_pair(opt, naive, p_rows, p_naive, rows, rng)
    opt.settle(p_rows)
    assert same_bits(p_rows, p_naive)
    cold = [2, 3, 6, 7, 8, 9, 10]
    assert same_bits(p_rows[cold], param[cold])
    assert opt.warm.all()


@pytest.mark.parametrize("block", _BLOCKS)
@pytest.mark.parametrize("k", [1, 2, 5])
def test_row_first_touched_at_step_k_owes_k_minus_1_steps(block, k):
    """Until its first gradient a row keeps its initial bits; the step that
    gives it one first replays the k - 1 decay-only steps it missed."""
    rng = np.random.default_rng(k)
    param = rng.normal(size=(8, 5)).astype(np.float32)
    opt, naive = _lazy_pair(param, block, 0.01)
    p_rows, p_naive = param.copy(), param.copy()
    for step in range(1, 7):
        rows = [0, 6] if step == k else [0]
        _step_pair(opt, naive, p_rows, p_naive, rows, rng)
        assert same_bits(p_rows[6], (p_naive if step >= k else param)[6])
        assert same_bits(p_rows[0], p_naive[0])
        assert same_bits(p_rows[3], param[3])            # never touched
        assert same_bits(_settled(opt, p_rows), p_naive)
        assert same_bits(opt.m, naive.m) and same_bits(opt.v, naive.v)


@pytest.mark.parametrize("block", _BLOCKS)
def test_settle_at_step_0_changes_nothing_and_warms_the_rows(block):
    rng = np.random.default_rng(10)
    param = rng.normal(size=(6, 2))
    opt, naive = _lazy_pair(param, block, 0.01)
    p_rows, p_naive = param.copy(), param.copy()
    opt.settle(p_rows, np.array([1, 4]))
    assert same_bits(p_rows, param)
    assert opt.warm.tolist() == [False, True, False, False, True, False]
    opt.settle(p_rows)
    assert same_bits(p_rows, param) and opt.warm.all()
    for rows in ([2], [], [0, 5]):
        # every row is warm, so every row is stepped: no settle needed
        _step_pair(opt, naive, p_rows, p_naive, rows, rng)
        assert same_bits(p_rows, p_naive)
