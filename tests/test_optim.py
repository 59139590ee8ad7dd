"""The blocked AdamW step against the whole-array oracle, bit for bit."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acadsearch import optim
from acadsearch.optim import AdamW
from oracles import NaiveAdamW, same_bits


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


def _check_rows_form(shape, dtype, block, steps, weight_decay=0.01):
    """Row-sparse steps equal the oracle fed the zero-filled dense gradient.

    ``steps`` lists, per step, the sorted unique rows that take a gradient.
    """
    rng = np.random.default_rng(6)
    param = rng.normal(size=shape).astype(dtype)
    with mock.patch.object(optim, "_BLOCK", block):
        opt = AdamW(shape, dtype=dtype, lr=0.05, weight_decay=weight_decay)
    naive = NaiveAdamW(shape, dtype=dtype, lr=0.05, weight_decay=weight_decay)
    p_rows, p_naive = param.copy(), param.copy()
    for rows in steps:
        rows = np.asarray(rows, dtype=np.int64)
        vals = rng.normal(size=(len(rows),) + shape[1:]).astype(dtype)
        dense = np.zeros(shape, dtype=dtype)
        dense[rows] = vals
        opt.step(p_rows, vals, rows=rows)
        naive.step(p_naive, dense)
        assert same_bits(p_rows, p_naive)
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
       block=st.sampled_from([1, 5, 7, optim._BLOCK]), data=st.data())
@settings(max_examples=60, deadline=None)
def test_adamw_rows_match_dense_oracle(n, tail, dtype, block, data):
    row_sets = st.sets(st.integers(0, n - 1)).map(sorted)
    steps = data.draw(st.lists(row_sets, min_size=1, max_size=4))
    _check_rows_form((n,) + tail, dtype, block, steps)
