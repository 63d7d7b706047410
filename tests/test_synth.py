import numpy as np
import pytest

from cloudfilter import NoiseSpec, add_gaussian_noise, make_clustered_plane, make_shape
from cloudfilter.core import bbox_diagonal
from cloudfilter.synth import SHAPE_KINDS


class TestMakeShape:
    @pytest.mark.parametrize("kind", SHAPE_KINDS)
    def test_normalized_with_unit_normals(self, kind):
        cloud = make_shape(kind, 8)
        assert bbox_diagonal(cloud.points) == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(cloud.points.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(np.linalg.norm(cloud.normals, axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("kind", SHAPE_KINDS)
    def test_deterministic(self, kind):
        a = make_shape(kind, 6)
        b = make_shape(kind, 6)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.normals, b.normals)

    def test_plane_count_and_flatness(self):
        cloud = make_shape("plane", 9)
        assert len(cloud) == 81
        assert np.all(cloud.points[:, 2] == 0.0)
        assert np.allclose(cloud.normals, np.tile([0, 0, 1.0], (81, 1)))

    def test_cube_faces(self):
        cloud = make_shape("cube", 8)
        assert len(cloud) == 6 * 64
        # exactly six distinct axis-aligned normals
        distinct = np.unique(cloud.normals, axis=0)
        assert len(distinct) == 6
        assert np.allclose(np.abs(distinct).sum(axis=1), 1.0)

    def test_sphere_radii_equal(self):
        cloud = make_shape("sphere", 12)
        radii = np.linalg.norm(cloud.points, axis=1)
        assert radii.max() - radii.min() < 1e-9
        # normals point radially outward
        radial = cloud.points / radii[:, None]
        assert np.allclose(cloud.normals, radial, atol=1e-9)

    def test_wedge_two_faces(self):
        cloud = make_shape("wedge", 7)
        assert len(cloud) == 2 * 49
        distinct = np.unique(cloud.normals, axis=0)
        assert len(distinct) == 2

    def test_icosahedron_count(self):
        n = 5
        cloud = make_shape("icosahedron", n)
        assert len(cloud) == 20 * n * (n + 1) // 2

    def test_no_duplicate_points(self):
        for kind in SHAPE_KINDS:
            pts = make_shape(kind, 6).points
            assert len(np.unique(pts, axis=0)) == len(pts)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown shape kind"):
            make_shape("torus", 8)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            make_shape("plane", 1)


class TestAddGaussianNoise:
    def test_seeded_reproducibility(self):
        cloud = make_shape("plane", 10)
        a = add_gaussian_noise(cloud, NoiseSpec(0.01, seed=5))
        b = add_gaussian_noise(cloud, NoiseSpec(0.01, seed=5))
        assert np.array_equal(a.points, b.points)

    def test_different_seeds_differ(self):
        cloud = make_shape("plane", 10)
        a = add_gaussian_noise(cloud, NoiseSpec(0.01, seed=5))
        b = add_gaussian_noise(cloud, NoiseSpec(0.01, seed=6))
        assert not np.array_equal(a.points, b.points)

    def test_zero_level_is_identity(self):
        cloud = make_shape("cube", 5)
        out = add_gaussian_noise(cloud, NoiseSpec(0.0))
        assert np.array_equal(out.points, cloud.points)

    def test_magnitude_scales_with_diagonal(self):
        cloud = make_shape("plane", 30)
        level = 0.01
        out = add_gaussian_noise(cloud, NoiseSpec(level, seed=0))
        displacement = out.points - cloud.points
        sigma = level * bbox_diagonal(cloud.points)
        assert displacement.std() == pytest.approx(sigma, rel=0.1)

    def test_normals_carried_unchanged(self):
        cloud = make_shape("sphere", 8)
        out = add_gaussian_noise(cloud, NoiseSpec(0.02, seed=1))
        assert np.array_equal(out.normals, cloud.normals)

    def test_negative_level_rejected(self):
        for level in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="noise level"):
                NoiseSpec(level)


class TestMakeClusteredPlane:
    def test_count_and_planarity(self):
        cloud = make_clustered_plane(5, 30, seed=2)
        assert len(cloud) == 150
        assert np.all(cloud.points[:, 2] == 0.0)
        assert np.allclose(cloud.normals, np.tile([0, 0, 1.0], (150, 1)))

    def test_seeded_reproducibility(self):
        a = make_clustered_plane(4, 20, seed=7)
        b = make_clustered_plane(4, 20, seed=7)
        assert np.array_equal(a.points, b.points)

    def test_clusters_are_clumped(self):
        # nearest-neighbor spacing is far more variable than a uniform layout
        from cloudfilter import build_neighbor_index

        cloud = make_clustered_plane(6, 40, seed=0)
        d = build_neighbor_index(cloud.points).nearest_distances()
        assert d.std() / d.mean() > 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            make_clustered_plane(1, 10)
        with pytest.raises(ValueError):
            make_clustered_plane(3, 0)
