import math

import numpy as np
import pytest

from kreinspec.operators import (
    K_SET_SLACK,
    BlockOperator,
    KreinPerturbationProblem,
    assemble_block,
    block_signature,
    certify_resolvent_bound,
    j0_quadrature,
    k_set_membership,
    min_relative_bound,
    renorm_check,
    resolvent_factor_norm,
    resolvent_norm,
    spectral_projections,
)
from kreinspec.verification import random_block_operator


def random_hermitian(rng, n, scale=1.0):
    w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = 0.5 * (w + w.conj().T)
    return w * scale / max(np.linalg.norm(w, 2), 1e-300)


class TestAssembleBlock:
    def test_decoupled_spectrum_is_union(self):
        rng = np.random.default_rng(0)
        sp = random_hermitian(rng, 3, 2.0)
        sm = random_hermitian(rng, 4, 3.0)
        block = BlockOperator(sp, sm, np.zeros((3, 4)))
        full = assemble_block(block)
        evals = np.sort(np.linalg.eigvals(full).real)
        expected = np.sort(np.concatenate([np.linalg.eigvalsh(sp),
                                           np.linalg.eigvalsh(sm)]))
        assert np.max(np.abs(np.linalg.eigvals(full).imag)) < 1e-10
        np.testing.assert_allclose(evals, expected, atol=1e-10)

    def test_canonical_two_by_two(self):
        block = BlockOperator(np.zeros((1, 1)), np.zeros((1, 1)),
                              np.array([[1.0]]))
        full = assemble_block(block)
        np.testing.assert_allclose(full, np.array([[0, 1], [-1, 0]]))
        evals = sorted(np.linalg.eigvals(full), key=lambda z: z.imag)
        np.testing.assert_allclose(evals, [-1j, 1j], atol=1e-13)

    def test_j_s_hermitian(self):
        rng = np.random.default_rng(1)
        block = BlockOperator(random_hermitian(rng, 3), random_hermitian(rng, 3),
                              rng.standard_normal((3, 3))
                              + 1j * rng.standard_normal((3, 3)))
        full = assemble_block(block)
        js = block_signature(block)[:, None] * full
        assert np.linalg.norm(js - js.conj().T, 2) \
            <= 1e-12 * np.linalg.norm(js, 2)

    def test_eigenvalues_conjugation_symmetric(self):
        rng = np.random.default_rng(2)
        for seed in range(20):
            r = np.random.default_rng(seed)
            block = BlockOperator(random_hermitian(r, 4, 3.0),
                                  random_hermitian(r, 3, 3.0),
                                  2.0 * (r.standard_normal((4, 3))
                                         + 1j * r.standard_normal((4, 3))))
            full = assemble_block(block)
            evals = np.linalg.eigvals(full)
            scale = np.linalg.norm(full, 2)
            for lam in evals:
                assert np.min(np.abs(evals - np.conj(lam))) <= 1e-8 * scale

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BlockOperator(np.zeros((2, 2)), np.zeros((3, 3)), np.zeros((3, 2)))

    def test_non_hermitian_diagonal_rejected(self):
        with pytest.raises(ValueError):
            BlockOperator(np.array([[0.0, 1.0], [0.0, 0.0]]),
                          np.zeros((2, 2)), np.zeros((2, 2)))


class TestResolventFactorNorm:
    def test_zero_perturbation(self):
        s = np.diag([1.0, 2.0])
        assert resolvent_factor_norm(np.zeros((2, 2)), s, 5j) == 0.0

    def test_scalar_case(self):
        assert resolvent_factor_norm(np.array([[3.0]]), np.array([[1.0]]), 0.0) \
            == pytest.approx(3.0)

    def test_against_power_iteration_oracle(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        s = random_hermitian(rng, 8, 4.0)
        lam = complex(2, 3)
        val = resolvent_factor_norm(t, s, lam)
        # independent oracle: power iteration on the Gram operator
        x = t @ np.linalg.inv(s - lam * np.eye(8))
        gram = x.conj().T @ x
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v /= np.linalg.norm(v)
        for _ in range(2000):
            v = gram @ v
            v /= np.linalg.norm(v)
        sigma = math.sqrt(float(np.real(v.conj() @ (gram @ v))))
        assert val == pytest.approx(sigma, rel=1e-8)

    def test_spectrum_point_rejected(self):
        with pytest.raises(ValueError):
            resolvent_factor_norm(np.eye(2), np.diag([1.0, 2.0]), 1.0)


class TestKSetMembership:
    def test_zero_perturbation_never_member(self):
        s = np.diag([0.0])
        assert not k_set_membership(np.zeros((1, 1)), s, 5j)

    def test_scalar_unit_disk(self):
        t = np.array([[1.0]])
        s = np.zeros((1, 1))
        assert k_set_membership(t, s, 0.5j)
        assert k_set_membership(t, s, 1j)  # boundary, norm exactly 1
        assert not k_set_membership(t, s, 2j)

    def test_closed_form_matches_factor_norm(self):
        # y^2 <= phi(x) decides what the factor norm decides, on both sides
        for seed in range(20):
            t, s, lams = TestVectorized.instance(seed)
            member = k_set_membership(t, s, lams)
            want = resolvent_factor_norm(t, s, lams) >= 1.0 - K_SET_SLACK
            assert member.tolist() == want.tolist()
            assert 0 < member.sum() < lams.size

    def test_spectrum_points_are_members(self):
        for seed in range(5):
            t, s, lams = TestVectorized.instance(seed)
            d = np.linalg.eigvalsh(s)
            lams[: d.size] = d
            assert k_set_membership(t, s, lams)[: d.size].all()
            assert all(k_set_membership(t, s, x) for x in d)
        # no factor at all: phi is 0 on the spectrum and negative off it
        s = np.diag([-1.0, 2.0])
        assert k_set_membership(np.zeros((1, 2)), s, np.array([-1.0, 2.0])).all()
        assert not k_set_membership(np.zeros((1, 2)), s, 0.5)

    def test_scalar_lam_returns_bool(self):
        t, s, lams = TestVectorized.instance(0)
        assert {type(k_set_membership(t, s, lam)) for lam in lams[:10]} == {bool}

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((5, 5))
        s = random_hermitian(rng, 5, 3.0)
        for _ in range(50):
            lam = complex(rng.uniform(-4, 4), rng.uniform(0.1, 4))
            assert k_set_membership(t, s, lam) \
                == k_set_membership(t, s, lam.conjugate())


class TestMinRelativeBound:
    def test_zero_t(self):
        for b in (0.0, 0.3, 0.9):
            assert min_relative_bound(np.zeros((3, 3)), np.eye(3), b) == 0.0

    def test_identity_against_zero_s(self):
        for b in (0.0, 0.5):
            assert min_relative_bound(np.eye(4), np.zeros((4, 4)), b) \
                == pytest.approx(1.0)

    def test_diagonal_case(self):
        t = np.diag([2.0, 0.0])
        s = np.diag([0.0, 3.0])
        assert min_relative_bound(t, s, 0.25) == pytest.approx(4.0)

    def test_nonincreasing_in_b(self):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((6, 6))
        s = random_hermitian(rng, 6, 5.0)
        values = [min_relative_bound(t, s, b) for b in np.linspace(0, 0.99, 25)]
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))

    def test_brute_force_vector_oracle_is_lower_bound(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        s = random_hermitian(rng, 5, 3.0)
        for b in (0.0, 0.2, 0.7):
            a = min_relative_bound(t, s, b)
            best = -math.inf
            for _ in range(10000):
                f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
                f /= np.linalg.norm(f)
                best = max(best, float(np.linalg.norm(t @ f) ** 2
                                       - b * np.linalg.norm(s @ f) ** 2))
            assert max(best, 0.0) <= a + 1e-8

    def test_guarantees_inequality_on_random_vectors(self):
        rng = np.random.default_rng(6)
        t = rng.standard_normal((6, 6))
        s = random_hermitian(rng, 6, 2.0)
        b = 0.4
        a = min_relative_bound(t, s, b)
        for _ in range(500):
            f = rng.standard_normal(6)
            lhs = np.linalg.norm(t @ f) ** 2
            rhs = a * np.linalg.norm(f) ** 2 + b * np.linalg.norm(s @ f) ** 2
            assert lhs <= rhs * (1 + 1e-10) + 1e-12


class TestSpectralProjections:
    def test_identity_projection_case(self):
        sig = np.array([1.0, -1.0])
        prob = KreinPerturbationProblem(signature=sig, a0=np.diag(sig),
                                        v=np.zeros((2, 2)))
        data = spectral_projections(prob)
        np.testing.assert_allclose(data.e_plus, np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(data.j0, np.diag(sig), atol=1e-12)
        assert data.tau0 == pytest.approx(1.0)

    def test_two_by_two_closed_form(self):
        # independent oracle: explicit eigenvectors of [[2,1],[-1,-1]]
        sig = np.array([1.0, -1.0])
        p = np.array([[2.0, 1.0], [1.0, 1.0]])
        a0 = sig[:, None] * p
        prob = KreinPerturbationProblem(signature=sig, a0=a0, v=np.zeros((2, 2)))
        data = spectral_projections(prob)
        lam_p = (1 + math.sqrt(5)) / 2
        lam_m = (1 - math.sqrt(5)) / 2
        w = np.array([[1.0, 1.0], [lam_p - 2.0, lam_m - 2.0]])
        w_inv = np.linalg.inv(w)
        e_plus = np.outer(w[:, 0], w_inv[0, :])
        j0 = e_plus - np.outer(w[:, 1], w_inv[1, :])
        np.testing.assert_allclose(data.e_plus, e_plus, atol=1e-10)
        np.testing.assert_allclose(data.j0, j0, atol=1e-10)
        assert data.tau0 == pytest.approx(np.linalg.norm(j0, 2))
        assert data.tau0 > 1.0

    def test_projection_identities(self):
        rng = np.random.default_rng(7)
        for seed in range(25):
            r = np.random.default_rng(seed)
            n = int(r.integers(2, 12))
            sig = np.where(r.uniform(size=n) < 0.5, 1.0, -1.0)
            if np.all(sig == sig[0]):
                sig[0] = -sig[0]
            q, _ = np.linalg.qr(r.standard_normal((n, n))
                                + 1j * r.standard_normal((n, n)))
            p = (q * r.uniform(0.5, 2.0, size=n)) @ q.conj().T
            prob = KreinPerturbationProblem(
                signature=sig, a0=sig[:, None] * 0.5 * (p + p.conj().T),
                v=np.zeros((n, n)))
            data = spectral_projections(prob)
            tol = 1e-8 * n
            eye = np.eye(n)
            np.testing.assert_allclose(data.e_plus @ data.e_plus, data.e_plus,
                                       atol=tol)
            np.testing.assert_allclose(data.e_minus @ data.e_minus, data.e_minus,
                                       atol=tol)
            np.testing.assert_allclose(data.e_plus @ data.e_minus,
                                       np.zeros((n, n)), atol=tol)
            np.testing.assert_allclose(data.e_plus + data.e_minus, eye, atol=tol)
            np.testing.assert_allclose(data.j0 @ data.j0, eye, atol=tol)
            assert data.tau0 >= 1.0 - 1e-12

    def test_indefinite_a0_rejected(self):
        sig = np.array([1.0, -1.0])
        with pytest.raises(ValueError):
            KreinPerturbationProblem(signature=sig, a0=np.eye(2),
                                     v=np.zeros((2, 2)))


class TestJ0Quadrature:
    def test_matches_eigen_construction(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            r = np.random.default_rng(seed)
            n = int(r.integers(2, 7))
            sig = np.where(r.uniform(size=n) < 0.5, 1.0, -1.0)
            q, _ = np.linalg.qr(r.standard_normal((n, n))
                                + 1j * r.standard_normal((n, n)))
            p = (q * r.uniform(0.4, 2.5, size=n)) @ q.conj().T
            a0 = sig[:, None] * 0.5 * (p + p.conj().T)
            prob = KreinPerturbationProblem(signature=sig, a0=a0,
                                            v=np.zeros((n, n)))
            data = spectral_projections(prob)
            approx = j0_quadrature(a0)
            assert np.max(np.abs(approx - data.j0)) < 1e-4

    def test_singular_a0_rejected(self):
        with pytest.raises(ValueError):
            j0_quadrature(np.zeros((2, 2)))


class TestRenormCheck:
    def test_trivial_involution(self):
        sig = np.array([1.0, -1.0, 1.0])
        prob = KreinPerturbationProblem(signature=sig, a0=np.diag(sig),
                                        v=np.zeros((3, 3)))
        data = spectral_projections(prob)
        assert data.tau0 == pytest.approx(1.0)
        assert renorm_check(data, trials=200)

    def test_two_by_two_instance(self):
        sig = np.array([1.0, -1.0])
        p = np.array([[2.0, 1.0], [1.0, 1.0]])
        prob = KreinPerturbationProblem(signature=sig, a0=sig[:, None] * p,
                                        v=np.zeros((2, 2)))
        assert renorm_check(spectral_projections(prob), trials=500)

    def test_random_instances(self):
        for seed in range(20):
            r = np.random.default_rng(seed)
            n = 20
            sig = np.where(r.uniform(size=n) < 0.5, 1.0, -1.0)
            if np.all(sig == sig[0]):
                sig[0] = -sig[0]
            q, _ = np.linalg.qr(r.standard_normal((n, n))
                                + 1j * r.standard_normal((n, n)))
            p = (q * r.uniform(0.3, 3.0, size=n)) @ q.conj().T
            prob = KreinPerturbationProblem(
                signature=sig, a0=sig[:, None] * 0.5 * (p + p.conj().T),
                v=np.zeros((n, n)))
            assert renorm_check(spectral_projections(prob), trials=50,
                                rng=np.random.default_rng(1000 + seed))


class TestVectorized:
    """An array of lam or b gives the per-element scalar results bit for bit."""

    @staticmethod
    def instance(seed, p=5, n=6):
        rng = np.random.default_rng(seed)
        t = rng.standard_normal((p, n)) + 1j * rng.standard_normal((p, n))
        t *= 1.5 / np.linalg.norm(t, 2)
        s = random_hermitian(rng, n, 4.0)
        lams = rng.uniform(-6, 6, 40) + 1j * rng.uniform(-3, 3, 40)
        lams[:8] = lams[:8].real + 0.25  # real lam off the spectrum
        return t, s, lams

    def test_factor_norm_and_k_set_match_scalar_calls(self):
        for seed in range(5):
            t, s, lams = self.instance(seed)
            norms = resolvent_factor_norm(t, s, lams)
            member = k_set_membership(t, s, lams)
            assert norms.shape == member.shape == lams.shape
            for lam, nu, inside in zip(lams, norms, member):
                assert resolvent_factor_norm(t, s, lam) == nu
                assert k_set_membership(t, s, lam) == inside
            assert 0 < member.sum() < lams.size

    def test_resolvent_norm_matches_scalar_calls(self):
        for seed in range(5):
            t, s, lams = self.instance(seed, p=6)
            a = s + t
            norms = resolvent_norm(a, lams)
            assert norms.shape == lams.shape
            for lam, value in zip(lams, norms):
                assert resolvent_norm(a, lam) == value

    def test_min_relative_bound_matches_scalar_calls(self):
        for seed in range(5):
            t, s, _ = self.instance(seed, p=6)
            bs = np.linspace(0.0, 0.99, 100)
            values = min_relative_bound(t, s, bs)
            assert values.shape == bs.shape
            for b, a in zip(bs, values):
                assert min_relative_bound(t, s, float(b)) == a

    def test_scalar_calls_return_floats(self):
        t, s, lams = self.instance(0, p=6)
        assert type(resolvent_factor_norm(t, s, lams[9])) is float
        assert type(resolvent_norm(s + t, lams[9])) is float
        assert type(min_relative_bound(t, s, 0.5)) is float

    def test_empty_arrays(self):
        t, s, _ = self.instance(0)
        assert resolvent_factor_norm(t, s, np.array([])).shape == (0,)
        assert resolvent_norm(s, np.array([])).shape == (0,)
        assert min_relative_bound(t, s, np.array([])).shape == (0,)

    def test_one_b_outside_range_rejects_the_array(self):
        t, s, _ = self.instance(1)
        for bad in (1.0, -0.1, np.nan):
            with pytest.raises(ValueError, match=r"\[0, 1\)"):
                min_relative_bound(t, s, np.array([0.0, 0.5, bad, 0.2]))

    def test_one_lam_on_spectrum_rejects_the_array(self):
        t, s, lams = self.instance(2)
        lams[17] = np.linalg.eigvalsh(s)[3]
        with pytest.raises(ValueError, match="spectrum of S"):
            resolvent_factor_norm(t, s, lams)

    def test_shape_mismatch_named(self):
        for func in (resolvent_factor_norm, k_set_membership):
            with pytest.raises(ValueError, match="T has 3 columns but S has size 2"):
                func(np.ones((2, 3)), np.eye(2), 1j)


class TestResolventNorm:
    def test_closed_form_two_by_two(self):
        s = np.array([[0.0, 1.0], [-1.0, 0.0]])
        lam = 2j
        via_svd = resolvent_norm(s, lam)
        inv = np.linalg.inv(s - lam * np.eye(2))
        assert via_svd == pytest.approx(np.linalg.norm(inv, 2), abs=1e-10)

    def test_normal_matrix_distance_formula(self):
        d = np.array([-2.0, 0.5, 3.0])
        s = np.diag(d)
        for lam in (1j, complex(2, 0.5), complex(-3, -1)):
            val = resolvent_norm(s, lam)
            assert val == pytest.approx(1.0 / np.min(np.abs(d - lam)), rel=1e-12)
            assert val <= 1.0 / abs(lam.imag) + 1e-12 or \
                np.min(np.abs(d - lam.real)) > 0


class TestFactorNormOracle:
    """The Gram route to nu against the SVD of T (S - lam)^{-1}."""

    @pytest.mark.parametrize("rows, cols", [(3, 17), (6, 6), (9, 4), (20, 1)])
    def test_matches_svd(self, rows, cols):
        rng = np.random.default_rng(rows * 100 + cols)
        t = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        s = random_hermitian(rng, cols, 4.0)
        lams = rng.uniform(-6, 6, 200) + 1j * rng.uniform(0.5, 3, 200) \
            * rng.choice([-1.0, 1.0], 200)
        oracle = [np.linalg.svd(t @ np.linalg.inv(s - lam * np.eye(cols)),
                                compute_uv=False)[0] for lam in lams]
        np.testing.assert_allclose(resolvent_factor_norm(t, s, lams), oracle,
                                   rtol=1e-13, atol=0.0)


class TestCertifyResolventBound:
    """The Cholesky decision of norm((A - lam)^{-1}) <= limit against the
    SVD norm, on random blocks and 1000 sample points each."""

    @staticmethod
    def instances(count=4, samples=1000):
        for seed in range(count):
            full = assemble_block(random_block_operator(seed, max_dim=20))
            scale = max(np.linalg.norm(full, 2), 1.0)
            rng = np.random.default_rng(seed)
            lams = rng.uniform(-2 * scale, 2 * scale, samples) + 1j * rng.uniform(
                1e-3 * scale, 2 * scale, samples) * rng.choice([-1.0, 1.0], samples)
            yield full, lams, resolvent_norm(full, lams)

    def test_never_certifies_above_the_limit(self):
        for full, lams, res in self.instances():
            rng = np.random.default_rng(7)
            for spread in (1e-3, 1e-9):
                limit = res * (1.0 + spread * rng.uniform(-1.0, 1.0, res.size))
                ok = np.array([certify_resolvent_bound(full, lam, cap)
                               for lam, cap in zip(lams, limit)])
                assert not np.any(ok & (res > limit))
                assert ok.sum() > 0.9 * np.sum(res <= limit)

    def test_limit_just_below_the_norm_certifies_none(self):
        for full, lams, res in self.instances():
            assert not np.any(certify_resolvent_bound(full, lams,
                                                      res * (1.0 - 1e-12)))
            assert not any(certify_resolvent_bound(full, lam, r * (1.0 - 1e-12))
                           for lam, r in zip(lams[:100], res[:100]))

    def test_limit_above_the_norm_certifies_all(self):
        for full, lams, res in self.instances():
            assert np.all(certify_resolvent_bound(full, lams, res * 1.001))

    def test_eigenvalue_never_certified(self):
        exact = np.diag([1.0, 2.0 + 1.0j, -3.0])
        assert certify_resolvent_bound(exact, 2.0 + 1.0j, np.inf) is False
        for full, _, _ in self.instances(count=2):
            for lam in np.linalg.eigvals(full):
                assert certify_resolvent_bound(full, lam, 1e300) is False

    def test_scalar_and_empty_calls(self):
        full, lams, res = next(self.instances(count=1))
        assert certify_resolvent_bound(full, lams[0], 2.0 * res[0]) is True
        out = certify_resolvent_bound(full, np.array([], dtype=complex), 1.0)
        assert out.shape == (0,) and out.dtype == bool
