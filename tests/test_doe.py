import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import pdist

from dynshape import doe
from dynshape.doe import (
    _BATCH,
    _MAX_SWEEPS,
    DesignMatrix,
    InputBox,
    lhd_sample,
    maximin_lhd,
    min_pairwise_distance,
    scale_to_box,
    _swap_hill_climb,
)

TABLE_BOX = InputBox(
    lower=np.array([0.15, 10.0, 0.5]),
    upper=np.array([0.35, 300.0, 1.0]),
    names=("PORO", "KSAND", "KRSAND"),
)


def assert_stratified(points):
    n = points.shape[0]
    for col in points.T:
        strata = np.floor(col * n).astype(int)
        assert sorted(strata) == list(range(n))


class TestLhdSample:
    def test_stratification_4x2(self):
        pts = lhd_sample(4, 2, seed=0).points
        for col in pts.T:
            for lo in (0.0, 0.25, 0.5, 0.75):
                assert ((col >= lo) & (col < lo + 0.25)).sum() == 1

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 40), d=st.integers(1, 5), seed=st.integers(0, 10**6))
    def test_stratification_property(self, n, d, seed):
        assert_stratified(lhd_sample(n, d, seed).points)

    def test_co2_study_size(self):
        design = lhd_sample(30, 3, seed=5)
        assert design.points.shape == (30, 3)
        assert_stratified(design.points)

    def test_degenerate_n_rejected(self):
        with pytest.raises(ValueError):
            lhd_sample(1, 2, seed=0)
        with pytest.raises(ValueError):
            lhd_sample(5, 0, seed=0)

    @pytest.mark.parametrize("seed", [-1, [3, -1]])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            lhd_sample(5, 2, seed=seed)

    def test_deterministic(self):
        a = lhd_sample(12, 3, seed=42).points
        b = lhd_sample(12, 3, seed=42).points
        assert np.array_equal(a, b)
        assert not np.array_equal(a, lhd_sample(12, 3, seed=43).points)


class TestMaximin:
    def test_single_restart_improves_base(self):
        base = lhd_sample(10, 2, seed=[7, 0])
        improved = maximin_lhd(10, 2, seed=7, restarts=1)
        assert min_pairwise_distance(improved.points) >= min_pairwise_distance(base.points)
        assert_stratified(improved.points)

    def test_two_points_one_dim(self):
        pts = maximin_lhd(2, 1, seed=0, restarts=3).points
        strata = np.floor(pts[:, 0] * 2).astype(int)
        assert sorted(strata) == [0, 1]
        assert min_pairwise_distance(pts) > 0

    def test_beats_plain_lhd_ensemble(self):
        # the maximin search must beat the median of its own restart pool
        n, d, seed, restarts = 30, 3, 11, 50
        champion = maximin_lhd(n, d, seed=seed, restarts=restarts)
        plain = [min_pairwise_distance(lhd_sample(n, d, [seed, r]).points) for r in range(restarts)]
        assert min_pairwise_distance(champion.points) > float(np.median(plain))

    def test_deterministic(self):
        a = maximin_lhd(9, 2, seed=3, restarts=5).points
        b = maximin_lhd(9, 2, seed=3, restarts=5).points
        assert np.array_equal(a, b)

    def test_restart_validation(self):
        with pytest.raises(ValueError):
            maximin_lhd(5, 2, seed=0, restarts=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            maximin_lhd(5, 2, seed=-1, restarts=2)


def _reference_climb(pts):
    """Plain first-improvement loop over every (column, i < j) swap.

    Each candidate swap recomputes rows i and j and the minimum over all other
    pairs; the pruned, batched search must accept exactly the same swaps.
    """
    pts = pts.copy()
    n, d = pts.shape
    diff = pts[:, None, :] - pts[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(d2, np.inf)
    best = d2.min()
    for _ in range(_MAX_SWEEPS):
        improved = False
        for k in range(d):
            for i in range(n - 1):
                for j in range(i + 1, n):
                    if pts[i, k] == pts[j, k]:
                        continue
                    pts[i, k], pts[j, k] = pts[j, k], pts[i, k]
                    row_i = ((pts - pts[i]) ** 2).sum(axis=1)
                    row_j = ((pts - pts[j]) ** 2).sum(axis=1)
                    row_i[i] = np.inf
                    row_j[j] = np.inf
                    mask = np.ones(n, dtype=bool)
                    mask[[i, j]] = False
                    others = d2[np.ix_(mask, mask)].min() if n > 2 else np.inf
                    cand = min(others, row_i.min(), row_j.min())
                    if cand > best:
                        best = cand
                        d2[i, :] = row_i
                        d2[:, i] = row_i
                        d2[j, :] = row_j
                        d2[:, j] = row_j
                        d2[i, i] = d2[j, j] = np.inf
                        improved = True
                    else:
                        pts[i, k], pts[j, k] = pts[j, k], pts[i, k]
        if not improved:
            break
    return pts


# sha256 of _swap_hill_climb(lhd_sample(n, d, seed).points).tobytes() for
# seeds 0-9 (seed 0 only at n = 120), taken from the plain triple loop above.
# d = 9 sums each row with numpy's 8-wide pairwise add; n = 120 makes the
# batched temporaries large enough for numpy to reuse them in place.
CLIMB_SHA256 = {
    (12, 3): [
        "0b4bae476ff3a460e4c48797eaa36a0e9c5c1b8439dff6d11840b9218adade28",
        "48aee5e6477bbaa3325d2b4d6114a7f52a63d5d92e2335d3bd3804f854f151b6",
        "bda35b3d031de97c6ab2813d0a034d862006f9991711b058a10fe73dd12a8109",
        "0c2d24516333932dd01f8ca722b6498e86d7ebb181ee0da0f10badec54171149",
        "4695343e5da7bba78f529c686f9e871b134d6e6bb7eba25aa7bb8fd985a02d13",
        "ba44a904f8bc427a6f3a45a611cde3235829c2dfbfcd0b88a7ede4a840abe8f2",
        "1c957b707e907f4f0fdf86f9db0edad4cb7b3531e98a1526a4e6f35071674537",
        "2b40780669ba0eff0b95ed42deddc8f9fe15c8fb9f7a2015eb0c70bddeb4ac5b",
        "fb66dc81b569b65e273ff6ce43fc812463d9d50ba0173b92da7eafa28695a58d",
        "063829d32414375810870934b770a84a90660b500157e500f97b24fe7ab7da36",
    ],
    (12, 9): [
        "65d173f8ab0318aa337e280314cea072b2fd5bed3fa7ed88ea634fbe62dcdc73",
        "9a1f9c163680b5cf55f1c6d56b3b3dd8c52625b266057188f188075ccbb61733",
        "4802f3d8297f7381a9d9c03b63b879b3c57e7a7e4cf5309e558bdc4710a66fde",
        "406337250081664e0c519a0d8fbe8b4d0facc218f2f25885a027547c2b3d8a50",
        "6705a3fb20e56ab8870707536ed3b9533a81ff2d3bce855a2a3cbc09a0e78e65",
        "8e2bed9f2fd799f82a1b75a4126e2206c6f66c23b936d3e572e86ea8b9179662",
        "5d9921ebf6cfef10213bc1ab0517d960556a84d79b9579a19057d8b58db57c50",
        "46ed68ba37a5a8ab9761874d671966de31c3ef87fc05bdbc6c8be648afcea41d",
        "021ee911866ddad4cc50171598e52f2da5dbdb89f84f136558ecaf2236d40712",
        "b77754231041c75ade2e7f3ea0c9cfb1a971436675ca4539d41864ff541e26b1",
    ],
    (30, 3): [
        "1dbd31059e46e0f5c0a1f98539d4594126e7e58780e282fc51f486743c3861e9",
        "c34c0ab0dc9d3d860e291580eb72dbfae8eba06c66fca3080a107ca85ab12ccf",
        "54ecf4df94eb4b414a2656557b2fce446a01267d56fe7a05f5d76c7e18ce19c2",
        "642c1466bd5d09d9b8d314f340482fd37985ec9d06227d006132b8e8eb28b9eb",
        "227b0555e5b6b81bcb4c94922d6db4543de2c2d1f5c0111d610485cae14cb78d",
        "187b86e48e54f441377b0062ec495e9c9b085030b14e4004da3e5cae117ef041",
        "94d0a7c5e3ff228714d8d7365702866f713b5dc704fa37bd19663f1f05b1d835",
        "5a730af993bf80881cb4b53ed6a5f43645774e34a7e211ec7da83ee7e51bda92",
        "e2668b5e30f1ee7ab086fca9aab661a32689d803d77eb8d0ec11033ca5492b30",
        "4e4f1209232bc100e845b7d87ff6561d8efe8d804df38de03fcbab8762b82009",
    ],
    (30, 9): [
        "880d97549d75b5627c5f24a72f8e98ea32a4c10ab18a2778a19bc31bac891917",
        "fd67c9da6920c69dd17bb1d7ee42bea07edd5c7b4af3a6c66ce6041eb3e0ec13",
        "239741a38a0991390521a28a502e111a1abfc18b13297d38b576b3cc664a96d4",
        "3ad66f0d3f20a611382bac097fe56229be381830bdd11c380bc2e49c7039533c",
        "c22b43425bfdd60fda96b0f8b1424d15a900c2a4dc19e319111c6ed785348ea2",
        "4a69ea2562f081e337698d31a004ad5e6a438640da7a2bf558161fbf080e629d",
        "9943d22e9415938896da361c438a5e22912221454e4da186c95ca17ffdefb4bd",
        "d0d532088e489bd9e36f7c21bc37a70807ee88a575fdf3ca6cd0a139bb3ed21f",
        "83de9830f34659e4f29ae236a5df362232aa4081b804d553f7fbc256f4a9390e",
        "e5991cab496603a5cb1236b3050ffc932953df30500c0d282f88b1e3b931a8e5",
    ],
    (60, 3): [
        "970f0e628d17bc52289dfd9fa424c4c44dae7ca6759e1eb7fc47e539633e94d9",
        "ebb13d538f41fa0d00e2be18eb83f75d222442064c21ed30d03cd166c0e6a3ed",
        "bce19bf4d7f3d7a4cdeb8342b42c03cfda5b926617d57c1f0a7436cec94c704f",
        "56c40a5032ca94097250dab2591fb51405bf22b5d4aae828a0d19b5682db272e",
        "5a0e07c792d3fdf47652bfbf41781c92d7da655beecda0801818500b3e184375",
        "0225e6832970a34f73cf9d59243d7175da5bd99f5fc727d7e70baf092387e324",
        "6b01c90021c0a2714c4163270ebdde2283992d641b62f612be1bc74889ae6237",
        "fbdb25e4bc449a260be723fa385c674e37564d4a88ed720c995e3fadd53ef948",
        "14df8805ed27e0e166644d2d6c8071b3833eef04d671319b1e0ed12e73493ceb",
        "80d65ee9b41d0b840d07ce1c30a78194e7620659a51b511303bbf01db3b352b7",
    ],
    (60, 9): [
        "c2b6c51f3c68da6b3f40ea1dbf1659a356d9b675312fd9590e255f126ec48734",
        "46d69f0a62d922cb68aa792735040c167505b36a33c7f2a3fbab39929dfc60d7",
        "7e7a69c0019fc3398ca07cc1f74449852739b6a5ba191496cd1b5628d07437f2",
        "b1307ff3d6d02fc25eceaa47ed634f3c1e43309f0a87cddcb0bd625ea8cc9d5f",
        "7c496307cc2d5a175c582a1246f868a0d05b626b8b0e7e34c2cdc3d49612b787",
        "c8ea639e898ba8d9a217311307614924e9c86620b8a3c7515f9c5c4aebefd23c",
        "1368d80d246a071e4410b6e0abcca58f2c1615ecd464859a3c17df77094bc71d",
        "60a210cd501ce0670e322313fc3e4aa3d18b40fa45491d7f8b8170e0c0b74525",
        "dcea9f2b55f17364ec9b0298f3a4698b69a9139f10b7ee16fdfe827cda614502",
        "348ecfff02a5675f348b0a83a3bb4cecb253beb3c0b2cbc4fe4e8400826699be",
    ],
    (120, 3): [
        "08bcfee100f53f8ab2e0ecc0d2fafa84215864d4d83d7d3ca451e2ed4f190eb6",
    ],
}


class TestSwapHillClimb:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 40), d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           levels=st.sampled_from([0, 2, 3]))
    def test_matches_reference_loop(self, n, d, seed, levels):
        # levels > 0 snaps the design to a coarse grid: tied column values and
        # several pairs at the minimum distance
        pts = lhd_sample(n, d, seed).points
        if levels:
            pts = np.floor(pts * levels) / levels
        assert _swap_hill_climb(pts).tobytes() == _reference_climb(pts).tobytes()

    @pytest.mark.parametrize("n,d", sorted(CLIMB_SHA256))
    def test_designs_are_unchanged(self, n, d):
        for seed, digest in enumerate(CLIMB_SHA256[n, d]):
            pts = _swap_hill_climb(lhd_sample(n, d, seed).points)
            assert hashlib.sha256(pts.tobytes()).hexdigest() == digest, (n, d, seed)

    def test_one_row_keeps_two_swaps_in_a_row(self):
        # column 0 keeps (0, 1) and then (0, 3): after a kept swap the search
        # resumes at (i, j + 1), not at the next row
        pts = lhd_sample(4, 2, seed=1).points
        assert _swap_hill_climb(pts).tobytes() == _reference_climb(pts).tobytes()

    @pytest.mark.parametrize("batch", [1, 4, _BATCH])
    def test_first_gain_beyond_the_first_batch(self, batch, monkeypatch):
        # in the first sweep the first improving pair of column 2 is the 21st
        # candidate, and some batches hold more than one improving pair
        monkeypatch.setattr(doe, "_BATCH", batch)
        pts = lhd_sample(12, 3, seed=0).points
        assert _swap_hill_climb(pts).tobytes() == _reference_climb(pts).tobytes()

    def test_tied_values_are_never_swapped(self):
        # rows 0 and 2 tie in column 0; swapping them changes nothing, but the
        # rows recomputed for it put the closest pair (0, 3) one ulp above its
        # einsum-built distance, which a search that tried it would keep
        pts = np.array([[0.4, 0.6, 0.0], [0.8, 0.8, 0.6], [0.4, 0.2, 0.8], [0.2, 0.0, 0.2]])
        assert _swap_hill_climb(pts).tobytes() == _reference_climb(pts).tobytes()

    def test_never_lowers_the_minimum(self):
        base = lhd_sample(25, 4, seed=2).points
        climbed = _swap_hill_climb(base)
        assert min_pairwise_distance(climbed) > min_pairwise_distance(base)
        assert_stratified(climbed)


class TestMinPairwiseDistance:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), d=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 300.0]))
    def test_equals_pdist_bitwise(self, n, d, seed, scale):
        pts = np.random.default_rng(seed).uniform(size=(n, d)) * scale
        assert min_pairwise_distance(pts) == pdist(pts).min()

    def test_duplicate_rows_give_zero(self):
        assert min_pairwise_distance(np.array([[0.1, 0.2], [0.5, 0.5], [0.1, 0.2]])) == 0.0


class TestScaleToBox:
    def test_table_corners(self):
        design = DesignMatrix(points=np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), normalized=True)
        scaled = scale_to_box(design, TABLE_BOX)
        np.testing.assert_allclose(scaled.points[0], [0.15, 10.0, 0.5])
        np.testing.assert_allclose(scaled.points[1], [0.35, 300.0, 1.0])
        assert not scaled.normalized

    def test_identity_box(self):
        box = InputBox(lower=np.zeros(2), upper=np.ones(2))
        design = lhd_sample(6, 2, seed=1)
        scaled = scale_to_box(design, box)
        assert np.array_equal(scaled.points, design.points)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            scale_to_box(lhd_sample(4, 2, seed=0), TABLE_BOX)


class TestInputBox:
    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            InputBox(lower=np.array([0.0, 1.0]), upper=np.array([1.0, 1.0]))

    def test_names_length(self):
        with pytest.raises(ValueError):
            InputBox(lower=np.zeros(2), upper=np.ones(2), names=("a",))
