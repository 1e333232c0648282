"""Property-based tests: mini-MPI collectives equal their NumPy oracle
for arbitrary data, rank counts and algorithms."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric import build_fabric
from repro.mpi import Communicator
from repro.routing import route_dmodk
from repro.topology import rlft_max

TABLES = route_dmodk(build_fabric(rlft_max(4, 2)))  # 32 end-ports


@st.composite
def comm_and_data(draw, max_ranks=32, vec=8):
    n = draw(st.integers(1, max_ranks))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    placement = rng.permutation(32)[:n]
    data = [rng.normal(size=vec) for _ in range(n)]
    return Communicator(TABLES, placement=placement, simulate=False), data


class TestOracleEquivalence:
    @given(comm_and_data())
    @settings(max_examples=40, deadline=None)
    def test_allreduce_sum(self, cd):
        comm, data = cd
        want = np.sum(data, axis=0)
        for algorithm in ("recursive-doubling", "rabenseifner"):
            res = comm.allreduce(data, algorithm=algorithm)
            assert all(np.allclose(v, want) for v in res.values), algorithm

    @given(comm_and_data())
    @settings(max_examples=40, deadline=None)
    def test_allgather_concat(self, cd):
        comm, data = cd
        want = np.concatenate(data)
        algorithms = ["ring", "bruck"]
        if comm.size & (comm.size - 1) == 0:
            algorithms.append("recursive-doubling")
        for algorithm in algorithms:
            res = comm.allgather(data, algorithm=algorithm)
            assert all(np.allclose(v, want) for v in res.values), algorithm

    @given(comm_and_data(), st.integers(0, 31))
    @settings(max_examples=40, deadline=None)
    def test_broadcast_any_root(self, cd, root_pick):
        comm, data = cd
        root = root_pick % comm.size
        payload = data[0]
        for algorithm in ("binomial", "scatter-allgather"):
            res = comm.broadcast(payload, root=root, algorithm=algorithm)
            assert all(np.allclose(v, payload) for v in res.values), algorithm

    @given(comm_and_data(), st.integers(0, 31))
    @settings(max_examples=40, deadline=None)
    def test_reduce_any_root(self, cd, root_pick):
        comm, data = cd
        root = root_pick % comm.size
        res = comm.reduce(data, root=root)
        assert np.allclose(res.values[root], np.sum(data, axis=0))

    @given(comm_and_data(max_ranks=8, vec=2))
    @settings(max_examples=25, deadline=None)
    def test_alltoall_transpose(self, cd):
        comm, _ = cd
        n = comm.size
        mat = [[np.array([float(i * n + j)]) for j in range(n)]
               for i in range(n)]
        res = comm.alltoall(mat)
        for j in range(n):
            want = np.array([float(i * n + j) for i in range(n)])
            assert np.allclose(res.values[j], want)
