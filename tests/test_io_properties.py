"""Property tests of the dataset and covariate CSV files."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rarelogit import Dataset
from rarelogit.cli import load_covariates, load_dataset, save_dataset

from _oracles import save_dataset_direct

# derandomized and without an example database, so every run tries the same
# examples whatever earlier runs found
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# every finite double: subnormals, -0.0 and magnitudes up to 1.8e308
finite = st.floats(allow_nan=False, allow_infinity=False)
special = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308])


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 50))
    d = draw(st.integers(1, 4))
    return draw(arrays(np.float64, (n, d), elements=finite | special))


@st.composite
def datasets(draw):
    x = draw(matrices())
    y = draw(arrays(np.int64, x.shape[0], elements=st.integers(0, 1)))
    return Dataset(x=x, y=y)


class TestRoundTrip:
    @PROPERTY
    @given(data=datasets())
    def test_dataset_file_matches_direct_writer_and_reads_back(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.csv")
            direct = os.path.join(tmp, "direct.csv")
            save_dataset(path, data)
            save_dataset_direct(direct, data)
            with open(path, "rb") as fh, open(direct, "rb") as gh:
                assert fh.read() == gh.read()
            back = load_dataset(path)
        assert back.x.tobytes() == data.x.tobytes()
        assert back.y.tobytes() == data.y.tobytes()

    @PROPERTY
    @given(x=matrices())
    def test_covariate_file_reads_back_bitwise(self, x):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "xs.csv")
            with open(path, "w") as fh:
                fh.write(",".join(f"x{j + 1}" for j in range(x.shape[1])) + "\n")
                fh.writelines(",".join(f"{v:.17g}" for v in row) + "\n" for row in x.tolist())
            back = load_covariates(path)
        assert back.tobytes() == x.tobytes()
