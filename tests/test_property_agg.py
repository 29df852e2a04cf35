"""Property-based tests: fast_grouped_agg / fast_distinct vs pandas on
random frames, driver and distributed stage-2 paths alike."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data
from hypothesis import given, settings, strategies as st

keys_st = st.lists(
    st.sampled_from(["a", "b", "c", "d", ""]), min_size=1, max_size=60
)
vals_st = st.lists(
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    min_size=1,
    max_size=60,
)


@st.composite
def frames(draw):
    k = draw(keys_st)
    v = draw(
        st.lists(
            st.floats(
                min_value=-1e6,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=len(k),
            max_size=len(k),
        )
    )
    return pd.DataFrame({"k": k, "v": v})


@settings(max_examples=12, deadline=None)
@given(df=frames(), blocks=st.integers(1, 4), dist=st.booleans())
def test_grouped_agg_matches_pandas(df, blocks, dist):
    import citationgraphs_ray.utils as U

    ds = ray.data.from_pandas(df).repartition(blocks)
    # Hypothesis rejects the function-scoped monkeypatch fixture
    with pytest.MonkeyPatch.context() as mp:
        if dist:  # force the distributed stage-2 merge
            mp.setattr(U, "DRIVER_BUDGET_BYTES", 0)
        out = (
            U.fast_grouped_agg(
                ds,
                ["k"],
                {"s": ("v", "sum"), "mx": ("v", "max"), "mn": ("v", "min")},
                count_as="n",
                num_merge_partitions=3,
            )
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
    exp = (
        df.groupby("k")["v"]
        .agg(s="sum", mx="max", mn="min", n="count")
        .reset_index()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert list(out.k) == list(exp.k)
    assert np.allclose(out.s, exp.s, atol=1e-6)
    assert np.allclose(out.mx, exp.mx)
    assert np.allclose(out.mn, exp.mn)
    assert list(out.n) == list(exp.n)


@settings(max_examples=12, deadline=None)
@given(df=frames(), blocks=st.integers(1, 4), dist=st.booleans())
def test_distinct_matches_pandas(df, blocks, dist):
    import citationgraphs_ray.utils as U

    ds = ray.data.from_pandas(df).repartition(blocks)
    with pytest.MonkeyPatch.context() as mp:
        if dist:  # force the distributed stage-2 merge
            mp.setattr(U, "DRIVER_BUDGET_BYTES", 0)
        out = U.fast_distinct(ds, ["k"]).to_pandas()
    assert sorted(out.k) == sorted(df.k.unique())
