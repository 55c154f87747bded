import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import ket_bra
from qdsa.channels import (
    HEISENBERG,
    SCHRODINGER,
    DensityMatrix,
    LindbladGenerator,
    QuantumChannel,
    Superoperator,
    apply_heisenberg,
    from_hermitian_coords,
    generator_to_channel,
    hermitian_coords,
    lindblad_apply,
    propagator,
    stinespring_dilate,
    to_superoperator,
    unvec,
    vec,
)
from qdsa.channels import _act, _matrix_units, _terms
from qdsa.errors import (
    DimMismatch,
    NegativeTime,
    NotHermitian,
    NotPSD,
    NotUnital,
    ValidationError,
)
from qdsa.linalg import ToleranceConfig, hermitian_part, is_psd, opnorm
from qdsa.models import build_fixture, fixture_names
from qdsa.sampling import (
    haar_random_channel,
    random_density_matrix,
    random_generator,
    random_hermitian,
    transient_block_generator,
)


class TestVectorization:
    def test_column_stacking_is_bit_exact(self):
        m = np.array([[1.0, 3.0], [2.0, 4.0]])
        assert list(vec(m)) == [1.0, 2.0, 3.0, 4.0]
        assert_allclose(unvec(vec(m)), m)

    @pytest.mark.parametrize("call,message", [
        (lambda: unvec(np.arange(6)), "length 6 is not the vec of a square matrix"),
        (lambda: unvec(np.arange(4), 3), "length 4 is not the vec of a 3 x 3 matrix"),
        (lambda: from_hermitian_coords(np.zeros(4), 3),
         "length 4 is not the vec of a 3 x 3 matrix"),
        (lambda: from_hermitian_coords(np.zeros(5), 2),
         "length 5 is not the vec of a 2 x 2 matrix"),
        (lambda: from_hermitian_coords(np.zeros((4, 1)), 2),
         "length 1 is not the vec of a 2 x 2 matrix"),
        (lambda: from_hermitian_coords(np.float64(1.0), 1),
         "frame coordinates must be a vector or a block of rows, got a scalar"),
    ], ids=["unvec", "unvec-dim", "from_hermitian_coords", "from_hermitian_coords-square",
            "from_hermitian_coords-column", "from_hermitian_coords-scalar"])
    def test_one_perfect_square_rule(self, call, message):
        with pytest.raises(DimMismatch, match=message):
            call()

    def test_coordinates_of_a_block_are_a_stack(self, rng):
        # from_hermitian_coords maps each row of a block, so a (1, n) row is
        # a stack of one matrix
        x = rng.standard_normal((3, 4))
        stack = from_hermitian_coords(x, 2)
        assert stack.shape == (3, 2, 2)
        for row, m in zip(x, stack):
            assert from_hermitian_coords(row, 2).tobytes() == m.tobytes()
        assert from_hermitian_coords(x[:1], 2).shape == (1, 2, 2)

    def test_sandwich_identity(self, rng):
        # vec(A B C) = (C^T kron A) vec(B)
        a, b, c = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                   for _ in range(3))
        assert opnorm((np.kron(c.T, a) @ vec(b) - vec(a @ b @ c)).reshape(3, 3)) <= 1e-13


class TestConstructors:
    def test_channel_rejects_non_unital(self):
        # sum V^dag V = diag(1, 0.81): the message carries the residual 0.19
        with pytest.raises(NotUnital, match="by 1.900e-01"):
            QuantumChannel([np.diag([1.0, 0.9])])

    def test_channel_rejects_mixed_dims(self):
        with pytest.raises(DimMismatch):
            QuantumChannel([np.eye(2), np.eye(3) / np.sqrt(3)])

    def test_generator_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            LindbladGenerator(np.array([[0.0, 1e-3], [0.0, 0.0]]))

    def test_generator_allows_empty_jumps_and_zero_h(self):
        LindbladGenerator(np.zeros((2, 2)), [])
        LindbladGenerator(np.diag([1.0, -1.0]), [])

    def test_density_matrix_validation(self):
        DensityMatrix(np.diag([0.5, 0.5]))
        with pytest.raises(NotPSD):
            DensityMatrix(np.diag([1.5, -0.5]))
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.6, 0.6]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entries_are_a_validation_error(self, value):
        # a bad value is not a shape error: DimMismatch stays for shapes
        bad = np.diag([value, 0.0])
        builders = (lambda: QuantumChannel([bad]),
                    lambda: LindbladGenerator(np.zeros((2, 2)), [bad]),
                    lambda: LindbladGenerator(bad),
                    lambda: DensityMatrix(bad))
        for build in builders:
            with pytest.raises(ValidationError, match="non-finite") as info:
                build()
            assert not isinstance(info.value, DimMismatch)


class TestFrameErrors:
    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_hermitian_coords_of_a_non_square(self, shape):
        with pytest.raises(DimMismatch):
            hermitian_coords(np.zeros(shape))

    def test_superoperator_size_not_a_square(self):
        with pytest.raises(DimMismatch):
            Superoperator(np.zeros((8, 8)), SCHRODINGER)


class TestKrausAction:
    def test_heisenberg_excited_population(self, adk):
        # direct matrix-product oracle on the explicit Kraus pair
        out = apply_heisenberg(adk, ket_bra(2, 1, 1))
        assert_allclose(out, 0.7 * ket_bra(2, 1, 1), atol=1e-12)

    def test_heisenberg_unitality(self, adk, rng):
        assert_allclose(apply_heisenberg(adk, np.eye(2)), np.eye(2), atol=1e-12)
        ch = haar_random_channel(4, 3, rng)
        assert_allclose(apply_heisenberg(ch, np.eye(4)), np.eye(4), atol=1e-12)

    def test_heisenberg_ground_projector(self, adk):
        out = apply_heisenberg(adk, ket_bra(2, 0, 0))
        assert_allclose(out, np.diag([1.0, 0.3]), atol=1e-12)

    def test_schrodinger_decay(self, adk):
        rho = DensityMatrix(ket_bra(2, 1, 1))
        out = propagator(adk, 1, SCHRODINGER).apply(rho.matrix)
        assert_allclose(out, np.diag([0.3, 0.7]), atol=1e-12)

    def test_schrodinger_fixes_ground_state(self, adk):
        rho = DensityMatrix(ket_bra(2, 0, 0))
        out = propagator(adk, 1, SCHRODINGER).apply(rho.matrix)
        assert_allclose(out, rho.matrix, atol=1e-12)

    def test_identity_channel(self, rng):
        ch = QuantumChannel([np.eye(3)])
        rho = DensityMatrix(random_density_matrix(3, rng))
        assert_allclose(propagator(ch, 1, SCHRODINGER).apply(rho.matrix), rho.matrix,
                        atol=1e-14)

    def test_positivity_preserved(self, rng):
        ch = haar_random_channel(3, 2, rng)
        for _ in range(10):
            x = random_density_matrix(3, rng)
            assert is_psd(apply_heisenberg(ch, x))

    def test_duality_pairing(self, rng):
        for model in (haar_random_channel(2, 2, rng), haar_random_channel(4, 3, rng)):
            for _ in range(100):
                rho = random_density_matrix(model.dim, rng)
                a = random_hermitian(model.dim, rng)
                nu = sum(v @ rho @ v.conj().T for v in model.kraus_ops)
                lhs = complex(np.trace(nu @ a))
                rhs = complex(np.trace(rho @ apply_heisenberg(model, a)))
                assert abs(lhs - rhs) <= 1e-10

    def test_evolved_duality_on_fixtures(self, rng):
        for name in fixture_names():
            model = build_fixture(name)
            t = 3 if isinstance(model, QuantumChannel) else 0.7
            forward = propagator(model, t, SCHRODINGER)
            backward = propagator(model, t, HEISENBERG)
            for _ in range(100):
                rho = random_density_matrix(model.dim, rng)
                a = random_hermitian(model.dim, rng)
                lhs = complex(np.trace(forward.apply(rho) @ a))
                rhs = complex(np.trace(rho @ backward.apply(a)))
                assert abs(lhs - rhs) <= 1e-10

    def test_kadison_schwarz(self, rng):
        ch = haar_random_channel(3, 3, rng)
        for _ in range(20):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            gain = apply_heisenberg(ch, a.conj().T @ a) \
                - apply_heisenberg(ch, a).conj().T @ apply_heisenberg(ch, a)
            assert is_psd(hermitian_part(gain))


class TestLindbladAction:
    def test_heisenberg_excited_decay(self, ad):
        out = lindblad_apply(ad, ket_bra(2, 1, 1), HEISENBERG)
        assert_allclose(out, -ket_bra(2, 1, 1), atol=1e-13)

    def test_heisenberg_ground_gain(self, ad):
        out = lindblad_apply(ad, ket_bra(2, 0, 0), HEISENBERG)
        assert_allclose(out, ket_bra(2, 1, 1), atol=1e-13)

    def test_heisenberg_annihilates_identity(self, m3):
        out = lindblad_apply(m3, np.eye(3), HEISENBERG)
        assert opnorm(out) <= 1e-13

    def test_schrodinger_traceless(self, m3, rng):
        for _ in range(5):
            rho = random_density_matrix(3, rng)
            assert abs(np.trace(lindblad_apply(m3, rho, SCHRODINGER))) <= 1e-13


class TestSuperoperator:
    def test_identity_generator_is_zero(self, id2):
        s = to_superoperator(id2, SCHRODINGER)
        assert opnorm(s.matrix) <= 1e-15

    def test_identity_channel_is_identity(self):
        s = to_superoperator(QuantumChannel([np.eye(2)]), HEISENBERG)
        assert_allclose(s.matrix, np.eye(4), atol=1e-15)

    def test_ad_schrodinger_spectrum(self, ad):
        # eigensolve of the vectorized generator; rates 1 on the population
        # and 1/2 on each coherence
        s = to_superoperator(ad, SCHRODINGER)
        w = np.sort(np.linalg.eigvals(s.matrix).real)
        assert_allclose(w, [-1.0, -0.5, -0.5, 0.0], atol=1e-12)

    @pytest.mark.parametrize("picture", [HEISENBERG, SCHRODINGER])
    def test_matrix_matches_direct_action(self, m3, adk, picture, rng):
        for model in (m3, adk):
            s = to_superoperator(model, picture)
            for i in range(model.dim):
                for j in range(model.dim):
                    unit = ket_bra(model.dim, i, j)
                    if isinstance(model, LindbladGenerator):
                        direct = lindblad_apply(model, unit, picture)
                    elif picture == HEISENBERG:
                        direct = apply_heisenberg(model, unit)
                    else:
                        direct = sum(v @ unit @ v.conj().T for v in model.kraus_ops)
                    assert opnorm(s.apply(unit) - direct) <= 1e-12

    def test_pictures_are_adjoint(self, m3, adk):
        for model in (m3, adk):
            h = to_superoperator(model, HEISENBERG).matrix
            s = to_superoperator(model, SCHRODINGER).matrix
            assert opnorm(h - s.conj().T) <= 1e-13

    def test_composition_matches_kraus_products(self, rng):
        ch = haar_random_channel(3, 2, rng)
        squared = to_superoperator(ch, SCHRODINGER).matrix @ to_superoperator(ch, SCHRODINGER).matrix
        # the composite's Kraus family is every product of two Kraus operators
        products = QuantumChannel([w @ v for w in ch.kraus_ops for v in ch.kraus_ops])
        composed = to_superoperator(products, SCHRODINGER).matrix
        assert opnorm(squared - composed) <= 1e-10


    def test_freezes_a_view_not_the_callers_array(self):
        r = np.eye(4)
        s = Superoperator(r, SCHRODINGER)
        assert r.flags.writeable
        r[0, 0] = 1.0  # the caller's array takes writes ...
        assert not s.real.flags.writeable
        with pytest.raises(ValueError):
            s.real[0, 0] = 1.0  # ... the superoperator's does not

    def test_built_from_the_real_form_only(self, adk):
        r = to_superoperator(adk, SCHRODINGER).real
        with pytest.raises(TypeError):
            Superoperator(r.astype(complex), SCHRODINGER)
        assert np.array_equal(Superoperator(r, SCHRODINGER).matrix,
                              to_superoperator(adk, SCHRODINGER).matrix)


class TestEvolve:
    def test_half_life(self, ad):
        s = propagator(ad, np.log(2.0), HEISENBERG)
        assert_allclose(s.apply(ket_bra(2, 1, 1)), 0.5 * ket_bra(2, 1, 1), atol=1e-12)

    def test_time_zero(self, m3):
        s = propagator(m3, 0.0, SCHRODINGER)
        assert_allclose(s.matrix, np.eye(9), atol=1e-15)

    def test_m3_transient_closed_form(self, m3):
        # alpha_t(|2><2|) = exp(-2t) |2><2|, cross-checked against the
        # generic matrix exponential of the vectorized generator
        from qdsa.linalg import matrix_exp

        t = 1.0
        s = propagator(m3, t, HEISENBERG)
        assert_allclose(s.apply(ket_bra(3, 2, 2)), np.exp(-2 * t) * ket_bra(3, 2, 2),
                        atol=1e-12)
        assert opnorm(s.matrix - matrix_exp(t * to_superoperator(m3, HEISENBERG).matrix)) <= 1e-12

    def test_negative_time_rejected(self, ad):
        with pytest.raises(NegativeTime):
            propagator(ad, -0.1)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_iteration_count_rejected(self, adk, ad, t):
        for call in (lambda: propagator(adk, t), lambda: propagator(ad, t),
                     lambda: generator_to_channel(ad, t)):
            with pytest.raises(ValueError, match="finite"):
                call()

    def test_semigroup_law(self, m3, rng):
        for _ in range(5):
            s, t = rng.uniform(0, 1, size=2)
            left = propagator(m3, s + t, HEISENBERG).matrix
            right = propagator(m3, s, HEISENBERG).matrix @ propagator(m3, t, HEISENBERG).matrix
            assert opnorm(left - right) <= 1e-9

    def test_heisenberg_evolution_preserves_identity(self, m3, th):
        for gen in (m3, th):
            for t in (0.3, 2.0, 15.0):
                out = propagator(gen, t, HEISENBERG).apply(np.eye(gen.dim))
                assert opnorm(out - np.eye(gen.dim)) <= 1e-10

    def test_first_order_consistency(self, m3):
        t = 1e-4
        s_t = propagator(m3, t, SCHRODINGER).matrix
        s_gen = to_superoperator(m3, SCHRODINGER).matrix
        assert opnorm((s_t - np.eye(9)) / t - s_gen) <= 1e-3

    def test_states_stay_states(self, rng):
        for name in fixture_names():
            model = build_fixture(name)
            discrete = isinstance(model, QuantumChannel)
            times = (1, 2, 10) if discrete else (0.1, 1.0, 10.0)
            rho = random_density_matrix(model.dim, rng)
            for t in times:
                out = propagator(model, t, SCHRODINGER).apply(rho)
                DensityMatrix(hermitian_part(out))  # validates psd + trace

    def test_channel_propagator_needs_integer_times(self, adk):
        propagator(adk, 3.0, HEISENBERG)
        with pytest.raises(ValueError):
            propagator(adk, 2.5, HEISENBERG)
        with pytest.raises(NegativeTime):
            propagator(adk, -1.0, HEISENBERG)


class TestStinespring:
    def test_identity_channel(self):
        dil = stinespring_dilate(QuantumChannel([np.eye(2)]))
        assert dil.multiplicity == 1
        assert_allclose(dil.isometry, np.eye(2), atol=1e-15)

    def test_adk_reconstruction(self, adk):
        dil = stinespring_dilate(adk)
        assert dil.multiplicity == 2
        assert dil.isometry.shape == (4, 2)
        for i in range(2):
            for j in range(2):
                unit = ket_bra(2, i, j)
                assert opnorm(dil.reconstruct(unit) - apply_heisenberg(adk, unit)) <= 1e-12

    def test_bit_flip_mixture(self):
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        ch = QuantumChannel([np.eye(2) / np.sqrt(2), sx / np.sqrt(2)])
        dil = stinespring_dilate(ch)
        assert dil.multiplicity == 2
        for i in range(2):
            for j in range(2):
                unit = ket_bra(2, i, j)
                assert opnorm(dil.reconstruct(unit) - apply_heisenberg(ch, unit)) <= 1e-12

    def test_isometry_property(self, rng):
        ch = haar_random_channel(3, 3, rng)
        dil = stinespring_dilate(ch)
        assert opnorm(dil.isometry.conj().T @ dil.isometry - np.eye(3)) <= 1e-12

    def test_represent_is_a_kron_one(self, rng):
        dil = stinespring_dilate(haar_random_channel(3, 2, rng))
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.array_equal(dil.represent(a), np.kron(a, np.eye(2)))


class TestGeneratorToChannel:
    def test_matches_propagator(self, m3, rng):
        t = 0.7
        ch = generator_to_channel(m3, t)
        s = propagator(m3, t, HEISENBERG)
        for i in range(3):
            for j in range(3):
                unit = ket_bra(3, i, j)
                assert opnorm(apply_heisenberg(ch, unit) - s.apply(unit)) <= 1e-10

    def test_identity_at_time_zero(self, ad):
        ch = generator_to_channel(ad, 0.0)
        assert_allclose(apply_heisenberg(ch, ket_bra(2, 0, 1)), ket_bra(2, 0, 1),
                        atol=1e-12)

    # (d, seed, t) of transient_block_generator rungs on which a cut of the
    # Choi spectrum at rank_rtol * lambda_max dropped between 5e-9 and 1.8e-7
    # of Kraus weight, so the channel failed its own unitality check
    @pytest.mark.parametrize("d,seed,t", [
        (8, 1, 0.1), (8, 2, 0.1), (8, 3, 0.1), (12, 1, 0.1), (12, 1, 0.37),
        (12, 2, 0.1), (12, 2, 10), (12, 3, 0.1), (16, 1, 0.1), (16, 1, 0.37),
        (16, 2, 0.1), (16, 2, 0.37), (16, 3, 0.1), (16, 3, 0.37)])
    def test_dropped_weight_stays_within_half_atol(self, d, seed, t):
        gen = transient_block_generator(d // 2, d - d // 2, np.random.default_rng(seed))[0]
        ch = generator_to_channel(gen, t)
        atol = ToleranceConfig().atol
        assert opnorm(sum(v.conj().T @ v for v in ch.kraus_ops) - np.eye(d)) <= atol / 2
        s = propagator(gen, t, HEISENBERG)
        units = _matrix_units(d)
        assert opnorm(np.stack([s.apply(m) for m in units]) - _act(_terms(ch), units)) <= atol

    def test_negative_eigenvalues_spend_no_budget(self, monkeypatch):
        # a Choi eigenvalue pushed to -atol is dropped without widening the
        # budget: the positive weight dropped still stays within atol / 2
        import qdsa.channels

        atol = ToleranceConfig().atol
        def shifted(m):
            w, v = np.linalg.eigh(hermitian_part(m))
            return hermitian_part(m) - (atol + w[0]) * np.outer(v[:, 0], v[:, 0].conj())
        monkeypatch.setattr(qdsa.channels, "hermitian_part", shifted)
        gen = transient_block_generator(4, 4, np.random.default_rng(2))[0]
        ch = generator_to_channel(gen, 0.1)
        assert opnorm(sum(v.conj().T @ v for v in ch.kraus_ops) - np.eye(8)) <= atol / 2


# The bodies that channels._act and the reshuffled Choi matrix of
# generator_to_channel replaced, kept as references: the Kraus action in
# each picture, the generator's action (its Schrodinger picture being the
# Heisenberg form of (G^dag, {L_i^dag})), and the Choi matrix assembled
# block by block from the predual's image of each matrix unit.

def _reference_schrodinger(ops, m):
    return sum(v @ m @ v.conj().T for v in ops)


def _reference_heisenberg(ops, m):
    return sum(v.conj().T @ m @ v for v in ops)


def _reference_lindblad(gen, m, picture):
    g, ops = _terms(gen)
    if picture == SCHRODINGER:
        g, ops = g.conj().T, tuple(l.conj().T for l in ops)
    return g.conj().T @ m + m @ g + _reference_heisenberg(ops, m)


def _reference_action(model, m, picture):
    if isinstance(model, LindbladGenerator):
        return _reference_lindblad(model, m, picture)
    act = _reference_heisenberg if picture == HEISENBERG else _reference_schrodinger
    return act(model.kraus_ops, m)


def _reference_kraus(gen, t):
    d = gen.dim
    s = propagator(gen, t, SCHRODINGER)
    choi = np.zeros((d * d, d * d), dtype=complex)
    for n, unit in enumerate(_matrix_units(d)):
        c1, c2 = divmod(n, d)
        choi[c1 * d:(c1 + 1) * d, c2 * d:(c2 + 1) * d] = s.apply(unit)
    w, v = np.linalg.eigh(hermitian_part(choi))
    cutoff = ToleranceConfig().cutoff(float(w[-1]))
    return [unvec(np.sqrt(w[j]) * v[:, j], d) for j in range(len(w)) if w[j] > cutoff]


def _seeded(kind, d):
    rng = np.random.default_rng(100 + d)
    if kind == "channel":
        return haar_random_channel(d, 1 + d % 3, rng)
    return random_generator(d, d % 3, rng)


ONE_ACTION_MODELS = ({name: build_fixture(name) for name in fixture_names()}
                     | {f"{kind}-d{d}": _seeded(kind, d)
                        for kind in ("channel", "generator") for d in range(1, 7)})
ONE_ACTION_GENERATORS = [name for name, model in ONE_ACTION_MODELS.items()
                         if isinstance(model, LindbladGenerator)]


class TestOneAction:
    """``_act`` and ``generator_to_channel`` have the bits of the bodies they
    replaced, on single matrices and on stacks."""

    @pytest.mark.parametrize("picture", [HEISENBERG, SCHRODINGER])
    @pytest.mark.parametrize("name", ONE_ACTION_MODELS)
    def test_act_is_the_reference_action(self, name, picture):
        model = ONE_ACTION_MODELS[name]
        d = model.dim
        rng = np.random.default_rng(d)
        stack = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
        for m in (stack[0], stack, _matrix_units(d)):
            got = _act(_terms(model), m, picture)
            assert got.shape == m.shape
            assert np.array_equal(got, _reference_action(model, m, picture))
        if isinstance(model, LindbladGenerator):
            public = lindblad_apply(model, stack[0], picture)
        elif picture == HEISENBERG:
            public = apply_heisenberg(model, stack[0])
        else:
            return
        assert np.array_equal(public, _reference_action(model, stack[0], picture))

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("name", ONE_ACTION_GENERATORS)
    def test_choi_reshuffle_is_the_unit_loop(self, name, t):
        gen = ONE_ACTION_MODELS[name]
        got = generator_to_channel(gen, t).kraus_ops
        want = _reference_kraus(gen, t)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
