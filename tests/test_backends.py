"""Execution-backend layer: registry, equivalence, and the packed data plane.

Covers the three contracts of :mod:`repro.backends`:

* **registry round-trip** -- every registered name constructs a backend
  that runs, and unknown names fail with an actionable
  :class:`~repro.errors.ConfigurationError`;
* **cross-backend equivalence** -- the ``bit-exact-*`` backends produce
  *identical* scores to the legacy oracle (the packed data plane is a faster
  representation of the same hardware, not an approximation), and the
  fast statistical backend matches the historical fast path exactly;
* **word-blocked stepper** -- both execution strategies of
  :func:`repro.blocks.batched.feature_extraction_recurrence_words` are
  bit-identical to the scalar sorted-vector block model.
"""

import hashlib

import numpy as np
import pytest

from repro.backends import (
    Backend,
    BitExactPackedBackend,
    backend_class,
    backend_names,
    create_backend,
    register_backend,
)
from repro.blocks.batched import (
    feature_extraction_recurrence,
    feature_extraction_recurrence_words,
)
from repro.blocks.feature_extraction import SorterFeatureExtractionBlock
from repro.config import ExperimentConfig
from repro.errors import ConfigurationError
from repro.nn import ScInferenceEngine
from repro.nn.architectures import LayerSpec, build_network
from repro.nn.sc_layers import ScNetworkMapper
from repro.sc.packed import pack_bits, packed_column_counts, unpack_bits


def _tiny_cnn():
    specs = [
        LayerSpec(kind="conv", name="Conv3_x", kernel=3, channels=2),
        LayerSpec(kind="pool", name="AvgPool", kernel=4, stride=4),
        LayerSpec(kind="fc", name="FC16", units=16),
        LayerSpec(kind="output", name="OutLayer", units=10),
    ]
    return build_network(
        specs, activation="hardware", seed=5, training_stream_length=128
    )


@pytest.fixture(scope="module")
def mapper():
    return ScNetworkMapper(_tiny_cnn(), stream_length=128, seed=7)


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(11).random((3, 1, 28, 28))


class TestRegistry:
    def test_expected_backends_registered(self):
        names = backend_names()
        for expected in (
            "float",
            "sc-fast",
            "bit-exact-legacy",
            "bit-exact-packed",
        ):
            assert expected in names

    def test_round_trip_every_name_constructs_and_runs(self, mapper, images):
        """Every registered backend constructs and produces class scores."""
        for name in backend_names():
            backend = create_backend(name, mapper)
            assert backend.name == name
            assert backend_class(name) is type(backend)
            scores = backend.forward(images)
            assert scores.shape == (3, 10)
            assert np.all(np.isfinite(scores))

    def test_unknown_backend_is_a_configuration_error(self, mapper):
        with pytest.raises(ConfigurationError, match="bit-exact-packed"):
            backend_class("no-such-backend")
        with pytest.raises(ConfigurationError, match="unknown backend"):
            create_backend("no-such-backend", mapper)

    def test_registering_nameless_class_fails(self):
        with pytest.raises(ConfigurationError, match="non-empty 'name'"):

            @register_backend
            class Nameless(Backend):  # pragma: no cover - never constructed
                def forward(self, images):
                    return images

    def test_duplicate_name_fails(self):
        with pytest.raises(ConfigurationError, match="already registered"):

            @register_backend
            class Impostor(Backend):  # pragma: no cover - never constructed
                name = "bit-exact-packed"

                def forward(self, images):
                    return images

    def test_capability_flags(self):
        assert backend_class("float").stochastic is False
        assert backend_class("bit-exact-packed").bit_exact is True
        assert backend_class("bit-exact-packed").packed_data_plane is True
        assert backend_class("bit-exact-legacy").packed_data_plane is False


#: Absolute pin of the legacy oracle: sha256 of the little-endian float64
#: scores of ``_tiny_cnn`` (mapper seed 7) on the three images of the
#: ``images`` fixture, plus two raw scores ([0, 0] and [-1, -1]).  The
#: relative equivalence tests cannot catch a change (a NumPy upgrade, a
#: compiler flag, a kernel rewrite) that moves every backend together.
GOLDEN_SCORES = {
    100: (
        "2f4991ca95ee62efba69d85a20995056b00838194445eba0d44d0759a5fe6480",
        -0.48,
        -0.43999999999999995,
    ),
    128: (
        "3ef1a48a02b914272cb46ebbd2a07f692c2479ba105e64f3964ee08e2036ed8a",
        -0.46875,
        -0.515625,
    ),
}


@pytest.mark.parametrize("stream_length", sorted(GOLDEN_SCORES))
def test_bit_exact_backends_match_golden_scores(stream_length, images):
    digest, first, last = GOLDEN_SCORES[stream_length]
    mapper = ScNetworkMapper(_tiny_cnn(), stream_length=stream_length, seed=7)
    for name in ("bit-exact-legacy", "bit-exact-packed", "bit-exact-native"):
        scores = create_backend(name, mapper).forward(images)
        raw = np.ascontiguousarray(scores, dtype="<f8").tobytes()
        assert hashlib.sha256(raw).hexdigest() == digest, name
        assert (scores[0, 0], scores[-1, -1]) == (first, last), name


class TestCrossBackendEquivalence:
    def test_bit_exact_backends_are_bit_identical(self, mapper, images):
        """Legacy and packed backends produce identical scores."""
        legacy = create_backend("bit-exact-legacy", mapper).forward(images)
        packed = create_backend("bit-exact-packed", mapper).forward(images)
        assert np.array_equal(legacy, packed)

    def test_packed_matches_legacy_on_thirty_two_images(self, mapper):
        """Packed scores equal the legacy oracle on a full 32-image batch."""
        batch = np.random.default_rng(29).random((32, 1, 28, 28))
        legacy = create_backend("bit-exact-legacy", mapper).forward(batch)
        packed = create_backend("bit-exact-packed", mapper).forward(batch)
        assert legacy.shape == (32, 10)
        assert np.array_equal(legacy, packed)

    def test_packed_matches_legacy_on_odd_stream_length(self, images):
        """Tail-word masking: equivalence holds when N % 64 != 0."""
        odd_mapper = ScNetworkMapper(_tiny_cnn(), stream_length=100, seed=3)
        legacy = create_backend("bit-exact-legacy", odd_mapper).forward(images)
        packed = create_backend("bit-exact-packed", odd_mapper).forward(images)
        assert np.array_equal(legacy, packed)

    def test_packed_position_chunk_does_not_change_scores(self, mapper, images):
        auto = create_backend("bit-exact-packed", mapper).forward(images)
        chunked = create_backend(
            "bit-exact-packed", mapper, position_chunk=5
        ).forward(images)
        assert np.array_equal(auto, chunked)

    def test_fast_backend_matches_historical_fast_path(self, mapper, images):
        """Same batching and RNG seeding as the mapper's fast_accuracy loop."""
        backend = create_backend("sc-fast", mapper)
        scores = backend.forward(images)
        expected = mapper.fast_forward(images, inject_noise=True)
        assert np.array_equal(scores, expected)

    def test_float_backend_matches_network_reference(self, mapper, images):
        backend = create_backend("float", mapper)
        expected = mapper.network.forward(images * 2.0 - 1.0, training=False)
        assert np.array_equal(backend.forward(images), expected)

    def test_packed_backend_single_image_shape(self, mapper, images):
        scores = BitExactPackedBackend(mapper).forward(images[0])
        assert scores.shape == (1, 10)


class TestEngineFacade:
    def test_evaluate_selects_backend_by_name(self, images):
        engine = ScInferenceEngine(_tiny_cnn(), stream_length=128, seed=7)
        labels = np.zeros(3, dtype=int)
        for name in ("float", "sc-fast", "bit-exact-packed"):
            result = engine.evaluate(images, labels, backend=name)
            assert result.mode == name
            assert result.n_images == 3
            assert 0.0 <= result.accuracy <= 1.0

    def test_evaluate_unknown_backend_raises(self, images):
        engine = ScInferenceEngine(_tiny_cnn(), stream_length=128, seed=7)
        with pytest.raises(ConfigurationError, match="unknown backend"):
            engine.evaluate(images, np.zeros(3, dtype=int), backend="typo")

    def test_engine_rejects_unknown_default_backend(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            ScInferenceEngine(_tiny_cnn(), stream_length=128, default_backend="nope")

    def test_default_backend_comes_from_config(self):
        engine = ScInferenceEngine(_tiny_cnn(), stream_length=128)
        assert engine.default_backend == ExperimentConfig().default_backend

    def test_config_backend_knob(self):
        config = ExperimentConfig().with_backend("bit-exact-packed")
        assert config.default_backend == "bit-exact-packed"
        with pytest.raises(ConfigurationError, match="default_backend"):
            ExperimentConfig(default_backend="")

    def test_legacy_bit_exact_wrapper_keeps_mode_label(self, images):
        engine = ScInferenceEngine(_tiny_cnn(), stream_length=128, seed=7)
        labels = np.zeros(3, dtype=int)
        result = engine.evaluate_sc_bit_exact(
            images, labels, max_images=2, backend="bit-exact-packed"
        )
        assert result.mode == "sc-bit-exact"
        assert result.n_images == 2


class TestWordBlockedStepper:
    @pytest.mark.parametrize("strategy", ["all-states", "per-cycle"])
    @pytest.mark.parametrize("length", [64, 100, 256])
    def test_stepper_matches_sorted_vector_block(self, rng, strategy, length):
        """Both strategies are bit-identical to the hardware data-path model."""
        m = 9
        block = SorterFeatureExtractionBlock(m)
        products = rng.integers(0, 2, (m, length), dtype=np.uint8)
        expected = block.forward_products_sorted_vector(products)
        half = block.threshold
        counts = products.sum(axis=0)
        words = feature_extraction_recurrence_words(
            counts, half, -half, half + 1, strategy=strategy
        )
        assert np.array_equal(unpack_bits(words, length), expected)

    def test_strategies_agree_on_batches(self, rng):
        counts = rng.integers(0, 12, (4, 7, 200))
        kwargs = dict(half=5, low=-5, high=6)
        states = feature_extraction_recurrence_words(
            counts, strategy="all-states", **kwargs
        )
        cycle = feature_extraction_recurrence_words(
            counts, strategy="per-cycle", **kwargs
        )
        assert np.array_equal(states, cycle)
        bits = feature_extraction_recurrence(counts, **kwargs)
        assert np.array_equal(bits, unpack_bits(states, 200))

    def test_stepper_rejects_bad_strategy(self, rng):
        with pytest.raises(ConfigurationError, match="strategy"):
            feature_extraction_recurrence_words(
                rng.integers(0, 3, 64), 1, -1, 2, strategy="magic"
            )

    def test_packed_column_counts_match_unpacked_sum(self, rng):
        bits = rng.integers(0, 2, (5, 9, 130), dtype=np.uint8)
        counts = packed_column_counts(pack_bits(bits), 130)
        assert np.array_equal(counts, bits.sum(axis=-2))


class TestParallelBackend:
    """Process-sharded execution is bit-identical to the inner backend."""

    def test_registered_with_capabilities(self):
        cls = backend_class("bit-exact-packed-mp")
        assert cls.bit_exact
        assert cls.progressive
        assert cls.batch_invariant
        assert backend_class("bit-exact-packed").batch_invariant
        assert not backend_class("sc-fast").batch_invariant

    def test_forward_matches_packed(self, mapper, images):
        packed = create_backend("bit-exact-packed", mapper)
        expected = packed.forward(images)
        with create_backend(
            "bit-exact-packed-mp", mapper, workers=2
        ) as parallel:
            got = parallel.forward(images)
            assert np.array_equal(got, expected)
            # Repeat on the warm pool (worker replicas + arenas reused).
            assert np.array_equal(parallel.forward(images), expected)

    def test_forward_partial_matches_packed_odd_length(self):
        odd_mapper = ScNetworkMapper(_tiny_cnn(), stream_length=100, seed=3)
        images = np.random.default_rng(5).random((4, 1, 28, 28))
        packed = create_backend("bit-exact-packed", odd_mapper)
        checkpoints = (13, 50, 100)
        expected = packed.forward_partial(images, checkpoints)
        with create_backend(
            "bit-exact-packed-mp", odd_mapper, workers=2
        ) as parallel:
            got = parallel.forward_partial(images, checkpoints)
            assert np.array_equal(got, expected)
            assert np.array_equal(got[-1], packed.forward(images))

    def test_single_image_uses_inner_replica(self, mapper, images):
        packed = create_backend("bit-exact-packed", mapper)
        with create_backend(
            "bit-exact-packed-mp", mapper, workers=2
        ) as parallel:
            got = parallel.forward(images[:1])
            assert np.array_equal(got, packed.forward(images[:1]))
            # One image cannot shard: the in-process replica served it
            # without ever starting the pool.
            assert parallel._executor is None

    def test_rejects_non_batch_invariant_inner(self, mapper):
        with pytest.raises(ConfigurationError):
            create_backend(
                "bit-exact-packed-mp", mapper, inner_backend="sc-fast"
            )

    def test_rejects_bad_workers(self, mapper):
        with pytest.raises(ConfigurationError):
            create_backend("bit-exact-packed-mp", mapper, workers=0)

    def test_close_is_idempotent(self, mapper, images):
        parallel = create_backend("bit-exact-packed-mp", mapper, workers=2)
        parallel.forward(images)
        parallel.close()
        parallel.close()
        assert parallel._executor is None


class TestWorkspaceReuseAcrossForwards:
    def test_packed_backend_steady_state_reuses_arena(self, mapper, images):
        backend = create_backend("bit-exact-packed", mapper)
        first = backend.forward(images)
        retained = backend.workspace.nbytes
        assert retained > 0
        second = backend.forward(images)
        # Identical scores and no arena growth at steady state.
        assert np.array_equal(first, second)
        assert backend.workspace.nbytes == retained


class TestDeepNetworkEquivalence:
    """Multi-conv / wide-FC geometry (the Table 8 SNN) stays bit-exact.

    Regression guard: the tiny test CNN never exercises fan-ins wide
    enough to reach uint16 column counts with bit planes at exponent
    >= 9, which is exactly where a narrow-shift bug once made FC-500
    layers diverge while every small-net test stayed green.
    """

    def test_snn_packed_equals_legacy(self):
        from repro.nn import build_snn

        network = build_snn(seed=1, training_stream_length=64)
        snn_mapper = ScNetworkMapper(network, stream_length=100, seed=3)
        image = np.random.default_rng(0).random((1, 1, 28, 28))
        packed = create_backend("bit-exact-packed", snn_mapper).forward(image)
        legacy = create_backend("bit-exact-legacy", snn_mapper).forward(image)
        assert np.array_equal(packed, legacy)


class TestResolveParallelBackend:
    """The shared --workers CLI mapping policy."""

    def test_no_workers_is_identity(self):
        from repro.backends import resolve_parallel_backend

        assert resolve_parallel_backend("sc-fast", None) == ("sc-fast", {})
        assert resolve_parallel_backend("bit-exact-packed", 1) == (
            "bit-exact-packed",
            {},
        )

    def test_shardable_backend_rides_along_as_inner(self):
        from repro.backends import resolve_parallel_backend

        name, options = resolve_parallel_backend("bit-exact-legacy", 4)
        assert name == "bit-exact-packed-mp"
        assert options == {"workers": 4, "inner_backend": "bit-exact-legacy"}

    def test_non_invariant_and_wrapper_fall_back_to_packed(self):
        from repro.backends import resolve_parallel_backend

        for chosen in ("sc-fast", "bit-exact-packed-mp"):
            name, options = resolve_parallel_backend(chosen, 2)
            assert name == "bit-exact-packed-mp"
            assert options["inner_backend"] == "bit-exact-packed"


class TestParallelCapabilitiesFollowInner:
    def test_non_progressive_inner_clears_progressive_flag(self, mapper):
        # "float" is the only batch-invariant, non-progressive backend
        # left now that every bit-exact backend reads stream prefixes.
        parallel = create_backend(
            "bit-exact-packed-mp",
            mapper,
            workers=2,
            inner_backend="float",
        )
        try:
            # The serving layer's early-exit gate reads this attribute;
            # advertising progressive support the inner lacks would
            # route merged batches into forward_partial calls the
            # replicas cannot answer.
            assert parallel.progressive is False
            assert parallel.bit_exact is False
        finally:
            parallel.close()
