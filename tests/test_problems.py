import numpy as np
import pytest

from avekit import analysis as an
from avekit import problems as pr
from avekit._rng import XorShift64Star, to_uniform
from avekit.errors import NotUnique, SingularTransform
from avekit.linalg import infinity_norm
from avekit.oracle import enumerate_solutions, unique_solution

from conftest import random_matrix, rng

CLASSES = ["norm_lt_half", "irreducible_half", "sdd_two_thirds", "tridiag_abs_sym"]


class TestFromSolution:
    def test_zero_matrix(self):
        problem = pr.from_solution(np.zeros((2, 2)), np.array([1.0, -1.0]))
        assert np.array_equal(problem.b, [1.0, -1.0])

    def test_trap_rhs_value(self):
        eps = 0.01
        problem, _ = pr.sge_trap_instance(eps)
        assert problem.b == pytest.approx([-(2 + eps**2) / 4.0, 0.5], abs=1e-16)

    @pytest.mark.parametrize("seed", range(20))
    def test_definitional_residual(self, seed):
        n = 2 + seed % 5
        a = random_matrix(seed, n)
        z = rng(seed + 1).uniform(-2, 2, size=n)
        assert pr.residual(pr.from_solution(a, z), z) <= 1e-14 * (1 + np.abs(z).max())


class TestAveProblem:
    def test_validates_shapes(self):
        with pytest.raises(ValueError):
            pr.AveProblem(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            pr.AveProblem(np.zeros((2, 2)), np.zeros(3))

    def test_rejects_non_finite(self):
        a = np.zeros((2, 2))
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            pr.AveProblem(a, np.zeros(2))


class TestGenerators:
    @pytest.mark.parametrize("cls", CLASSES)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_soundness(self, cls, seed):
        for n in (2, 4, 7):
            a = pr.gen_class(cls, n, seed)
            profile = an.condition_profile(a)
            expected = {
                "norm_lt_half": profile.cond1,
                "irreducible_half": profile.cond2,
                "sdd_two_thirds": profile.cond3,
                "tridiag_abs_sym": profile.cond4,
            }[cls]
            assert expected

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_sdd_two_thirds_at_n_one(self, seed):
        # A 1 x 1 row has no off-diagonal mass: the generator's zero-row branch.
        a = pr.gen_class("sdd_two_thirds", 1, seed)
        assert a.shape == (1, 1) and an.condition_profile(a).cond3

    def test_sdd_redraws_a_scale_that_rounds_to_one(self):
        # uniform(1, 1.5) of the unit draws 0 and 2^-53 rounds to 1, so
        # row 0 takes its scale from the third draw, 0.5.
        class ScriptedDraws:
            draws = [0.0, 2.0**-53, 0.5, 0.7, 0.2, 0.1, 0.0]

            def uniform_array(self, shape):
                return np.array([[0.3, 0.4], [0.2, 0.1]])

            def random(self):
                return self.draws.pop(0)

            def uniform(self, lo, hi):
                return to_uniform(self.random(), lo, hi)

        draws = ScriptedDraws()
        a = pr._gen_sdd_two_thirds(draws, 2)
        want = np.array([[-0.4 * 1.25, 0.4], [0.2, 0.2 * 1.1]])
        assert draws.draws == []
        assert a.tolist() == (want * (0.25 / infinity_norm(want))).tolist()

    def test_norm_lt_third(self):
        for seed in range(10):
            a = pr.gen_class("norm_lt_third", 4, seed)
            assert infinity_norm(a) < 1.0 / 3.0

    def test_unconstrained_norm_target(self):
        a = pr.gen_class("unconstrained", 5, 3, nu=1.7)
        assert infinity_norm(a) == pytest.approx(1.7, rel=1e-12)

    def test_unconstrained_requires_nu(self):
        with pytest.raises(ValueError):
            pr.gen_class("unconstrained", 3, 0)

    @pytest.mark.parametrize("cls", CLASSES + ["norm_lt_third"])
    def test_deterministic(self, cls):
        a1 = pr.gen_class(cls, 5, 123)
        a2 = pr.gen_class(cls, 5, 123)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, pr.gen_class(cls, 5, 124))

    def test_irreducible_half_hits_exact_half(self):
        for seed in range(10):
            a = pr.gen_class("irreducible_half", 4, seed)
            assert infinity_norm(a) == 0.5

    def test_tridiag_needs_two(self):
        with pytest.raises(ValueError):
            pr.gen_class("tridiag_abs_sym", 1, 0)

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            pr.gen_class("nope", 3, 0)

    def test_random_instance_known_solution(self):
        problem, z = pr.random_instance("norm_lt_half", 5, 9)
        assert pr.residual(problem, z) <= 1e-14 * (1 + np.abs(z).max())

    def test_random_instance_explicit_rhs(self):
        problem, z = pr.random_instance("norm_lt_half", 5, 9, rhs="explicit")
        assert z is None
        assert np.abs(problem.b).max() <= 1.0


class TestDrawWithFollowers:
    """The batched stream against the scalar loop it replaces: draw a head
    r; if hit(r), draw its follower."""

    @staticmethod
    def scalar_loop(rng, hit, heads):
        mask, followers = [], []
        while len(mask) < heads:
            mask.append(hit(rng.random()))
            if mask[-1]:
                followers.append(rng.random())
        return mask, followers

    @pytest.mark.parametrize("p", [0.0, 0.15, 0.5, 0.97, 1.0])
    @pytest.mark.parametrize("heads", [0, 1, 2, 300], ids=lambda k: f"{k}-heads")
    def test_matches_scalar_loop(self, p, heads):
        for seed in range(4):
            batched, scalar = XorShift64Star(seed, 9), XorShift64Star(seed, 9)
            hit = lambda r: r < p  # noqa: E731
            mask, followers = pr._draw_with_followers(batched, hit, heads)
            assert (mask.tolist(), followers.tolist()) == self.scalar_loop(scalar, hit, heads)
            assert batched.random() == scalar.random()


class TestCounterexamples:
    def test_trap_norm(self):
        problem, _ = pr.sge_trap_instance(0.01)
        assert infinity_norm(problem.a) == pytest.approx(0.51, abs=1e-15)

    def test_trap_dominant_entry_sign(self):
        problem, z = pr.sge_trap_instance(0.01)
        assert abs(problem.b[0]) > abs(problem.b[1])
        assert an.signature_of(problem.b)[0] == -1
        assert an.signature_of(z)[0] == 1

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5])
    def test_trap_oracle_agrees(self, eps):
        problem, z = pr.sge_trap_instance(eps)
        assert unique_solution(problem) == pytest.approx(z, abs=1e-12)

    def test_trap_eps_validation(self):
        with pytest.raises(ValueError):
            pr.sge_trap_instance(0.0)

    def test_circulant_instance(self):
        problem = pr.newton_cycle_instance()
        assert infinity_norm(problem.a) == 0.625
        assert unique_solution(problem) == pytest.approx(np.full(3, 8 / 3), rel=1e-13)

    def test_inflated_identity_norm(self):
        assert infinity_norm(pr.inflated_identity(0.01, 2)) == pytest.approx(1.01)

    def test_inflated_identity_negative_rhs_solutions(self):
        problem = pr.AveProblem(pr.inflated_identity(0.01, 2), -np.ones(2))
        result = enumerate_solutions(problem)
        assert any(np.abs(z - 100.0).max() < 1e-6 for _, z in result.solutions)
        with pytest.raises(NotUnique):
            unique_solution(problem)

    def test_inflated_identity_positive_rhs_unsolvable(self):
        problem = pr.AveProblem(pr.inflated_identity(0.01, 2), np.ones(2))
        assert enumerate_solutions(problem).solutions == []


class TestEquilibrium:
    def test_zero_matrix(self):
        c = np.array([0.5, -1.0])
        ave, recover = pr.from_equilibrium(pr.EquilibriumProblem(np.zeros((2, 2)), c))
        assert np.array_equal(ave.a, -np.eye(2))
        assert np.array_equal(ave.b, 2 * c)
        assert np.array_equal(recover(c), c)

    def test_scalar(self):
        ave, _ = pr.from_equilibrium(
            pr.EquilibriumProblem(np.array([[1.0]]), np.array([3.0]))
        )
        assert ave.a[0, 0] == pytest.approx(-1.0 / 3.0)
        assert ave.b == pytest.approx([2.0])

    def test_singular_transform(self):
        with pytest.raises(SingularTransform):
            pr.from_equilibrium(
                pr.EquilibriumProblem(-0.5 * np.eye(2), np.zeros(2))
            )

    def test_round_trip(self):
        recovered = 0
        for seed in range(100):
            n = 2 + seed % 4
            b_mat = random_matrix(seed, n, norm=0.2)
            x = rng(seed + 7).uniform(-1, 1, size=n)
            c = b_mat @ x + np.maximum(0.0, x)
            ave, recover = pr.from_equilibrium(pr.EquilibriumProblem(b_mat, c))
            result = enumerate_solutions(ave)
            if len(result.solutions) == 1:
                assert np.abs(recover(result.solutions[0][1]) - x).max() <= 1e-9 * (
                    1 + np.abs(x).max()
                )
                recovered += 1
            else:
                # Not uniquely solvable; the seeded x must still be found.
                assert any(
                    np.abs(z - x).max() <= 1e-9 * (1 + np.abs(x).max())
                    for _, z in result.solutions
                )
        assert recovered > 0
