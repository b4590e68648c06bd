import json
import math
import re
import shutil
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import semalloc as sm
from semalloc import (
    CategoryCorpus,
    ConfigurationError,
    EmbeddingProvider,
    FileEmbeddings,
    HashEmbedder,
    average_similarity,
    build_similarity_tensor,
    cosine_match,
    load_problem,
)
from semalloc.cli import main
from semalloc.core_model import DemandScenario, VspDemand
from semalloc.similarity import load_corpora_csv

finite_vectors = st.lists(
    st.floats(min_value=-100, max_value=100), min_size=2, max_size=8
).filter(lambda v: any(abs(x) > 1e-6 for x in v))


@st.composite
def vector_pairs(draw):
    dim = draw(st.integers(min_value=2, max_value=8))
    coords = st.floats(min_value=-100, max_value=100)
    nonzero = st.lists(coords, min_size=dim, max_size=dim).filter(
        lambda v: any(abs(x) > 1e-6 for x in v)
    )
    return draw(nonzero), draw(nonzero)


class TestCosineMatch:
    def test_identical_vectors(self):
        assert cosine_match([1, 2, 2], [1, 2, 2]) == 1.0

    def test_orthogonal_vectors(self):
        assert cosine_match([1, 0], [0, 1]) == 0.0

    def test_known_angle(self):
        # dot = 8, both norms 3
        assert cosine_match([1, 2, 2], [2, 1, 2]) == pytest.approx(8 / 9, rel=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine_match([0, 0], [1, 0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            cosine_match([1, 0], [1, 0, 0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            cosine_match([1, float("nan")], [1, 0])

    @given(pair=vector_pairs())
    def test_symmetry(self, pair):
        a, b = pair
        assert cosine_match(a, b) == pytest.approx(cosine_match(b, a), abs=1e-12)

    @given(pair=vector_pairs(), scale=st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, pair, scale):
        a, b = pair
        scaled = [scale * x for x in a]
        assert cosine_match(scaled, b) == pytest.approx(cosine_match(a, b), abs=1e-9)
        assert cosine_match(a, [scale * x for x in a]) == pytest.approx(1.0, abs=1e-9)

    @given(pair=vector_pairs())
    def test_result_in_range(self, pair):
        a, b = pair
        assert -1.0 <= cosine_match(a, b) <= 1.0


def unit_vector_with_cosine(target: float) -> list[float]:
    """Planar vector whose angle to (1, 0) has the requested cosine."""
    return [target, math.sqrt(1 - target * target)]


class TestAverageSimilarity:
    def test_identical_single_entry(self):
        provider = FileEmbeddings({"cat": [1.0, 0.0]})
        corpus = CategoryCorpus(0, (("cat", 1),))
        score = average_similarity(np.array([1.0, 0.0]), corpus, provider)
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_equal_count_mean(self):
        provider = FileEmbeddings({"same": [1.0, 0.0], "orth": [0.0, 1.0]})
        corpus = CategoryCorpus(0, (("same", 1), ("orth", 1)))
        score = average_similarity(np.array([1.0, 0.0]), corpus, provider)
        assert score == pytest.approx(0.5, abs=1e-12)

    def test_three_entry_mean(self):
        provider = FileEmbeddings(
            {
                "a": unit_vector_with_cosine(0.9),
                "b": unit_vector_with_cosine(0.8),
                "c": unit_vector_with_cosine(0.79),
            }
        )
        corpus = CategoryCorpus(2, (("a", 1), ("b", 1), ("c", 1)))
        score = average_similarity(np.array([1.0, 0.0]), corpus, provider)
        assert score == pytest.approx((0.9 + 0.8 + 0.79) / 3, abs=1e-12)
        assert score == pytest.approx(0.83, abs=1e-9)

    def test_negative_matches_clamp_to_zero(self):
        provider = FileEmbeddings({"anti": [-1.0, 0.0]})
        corpus = CategoryCorpus(0, (("anti", 3),))
        assert average_similarity(np.array([1.0, 0.0]), corpus, provider) == 0.0

    def test_empty_corpus_rejected(self):
        provider = HashEmbedder()
        with pytest.raises(ValueError, match="empty"):
            average_similarity(provider.embed("x"), CategoryCorpus(0, ()), provider)

    def test_counts_beyond_float_range_are_configuration_errors(self):
        provider = FileEmbeddings({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        huge = CategoryCorpus(0, (("a", 1), ("b", 10**400)))
        with pytest.raises(ConfigurationError, match=r"^corpus count 10{400} for 'b' is beyond the range of a float$"):
            average_similarity(np.array([1.0, 0.0]), huge, provider)
        summed = CategoryCorpus(0, (("a", 2**1023), ("b", 2**1023)))
        message = rf"^corpus counts of one device sum to {2**1024} at 'b', beyond the range of a float$"
        with pytest.raises(ConfigurationError, match=message):
            average_similarity(np.array([1.0, 0.0]), summed, provider)

    def test_count_weighting_equals_entry_splitting(self):
        provider = FileEmbeddings({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        interest = np.array([1.0, 0.0])
        merged = CategoryCorpus(0, (("a", 2), ("b", 1)))
        split = CategoryCorpus(0, (("a", 1), ("a", 1), ("b", 1)))
        assert average_similarity(interest, merged, provider) == average_similarity(
            interest, split, provider
        )

    def test_reorder_invariance(self):
        provider = HashEmbedder()
        interest = provider.embed("traffic")
        entries = [("bus", 2), ("car", 1), ("bike", 3)]
        forward = CategoryCorpus(0, tuple(entries))
        backward = CategoryCorpus(0, tuple(reversed(entries)))
        assert average_similarity(interest, forward, provider) == pytest.approx(
            average_similarity(interest, backward, provider), abs=1e-12
        )


class TestProviders:
    def test_hash_embedder_deterministic(self):
        a, b = HashEmbedder(), HashEmbedder()
        assert np.array_equal(a.embed("red bus"), b.embed("red bus"))
        assert a.embed("red bus").shape == (64,)

    def test_hash_embedder_never_zero(self):
        emb = HashEmbedder()
        assert emb.embed("!!!").any()
        with pytest.raises(ValueError):
            emb.embed("")

    def test_hash_embedder_token_order_insensitive(self):
        emb = HashEmbedder()
        assert np.array_equal(emb.embed("bus red"), emb.embed("red bus"))

    def test_file_embeddings_missing_key(self):
        provider = FileEmbeddings({"known": [1.0, 0.0]})
        with pytest.raises(ConfigurationError, match="unknown"):
            provider.embed("unknown")

    def test_file_embeddings_rejects_mixed_dimension(self):
        with pytest.raises(ConfigurationError, match="dimension"):
            FileEmbeddings({"a": [1.0, 0.0], "b": [1.0, 0.0, 0.0]})

    def test_file_embeddings_rejects_zero_vector(self):
        with pytest.raises(ConfigurationError, match="zero"):
            FileEmbeddings({"a": [0.0, 0.0]})

    def test_file_embeddings_rows_are_read_only(self):
        provider = FileEmbeddings({"a": [1.0, 2.0], "b": [3, 4]})
        assert provider.embed("b").tolist() == [3.0, 4.0]
        with pytest.raises(ValueError):
            provider.embed("a")[0] = 5.0

    @pytest.mark.parametrize(
        "values", ["xyz", [1, "q"], [True, False], [1.0, None], [[1.0], [2.0, 3.0]]]
    )
    def test_file_embeddings_reject_non_numeric_entries(self, values):
        with pytest.raises(ConfigurationError, match="'bad text'"):
            FileEmbeddings({"ok": [1.0, 0.0], "bad text": values})

    @pytest.mark.parametrize("values", [[10**400, 1], [0.5, -(10**400)]])
    def test_file_embeddings_reject_integers_beyond_float_range(self, values):
        message = "embedding for 'huge' holds an integer beyond the range of a float"
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            FileEmbeddings({"ok": [1.0, 0.0], "huge": values})

    def test_embeddings_file_with_booleans_rejected(self, tmp_path):
        path = tmp_path / "emb.json"
        path.write_text('{"a": [1, 0], "flags": [true, false]}')
        with pytest.raises(ConfigurationError, match="'flags'.*numbers only"):
            FileEmbeddings.from_path(path)

    def test_file_embeddings_from_bundled_file(self):
        provider = FileEmbeddings.from_path(sm.data_file("embeddings_demo.json"))
        assert provider.embed("vehicles on road").shape == (2,)


class TestSimilarityTensor:
    def test_identical_texts_give_full_similarity(self):
        provider = HashEmbedder()
        scenarios = (
            DemandScenario(1.0, (VspDemand("vehicles", 10, 1.0),)),
        )
        corpora = {0: CategoryCorpus(0, (("vehicles", 1),))}
        tensor = build_similarity_tensor(scenarios, corpora, provider)
        assert tensor.shape == (1, 1, 1)
        assert tensor[0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_bundled_corpus_reproduces_published_columns(self):
        corpora = load_corpora_csv(sm.data_file("corpora_demo.csv"))
        provider = FileEmbeddings.from_path(sm.data_file("embeddings_demo.json"))
        scenarios = (
            DemandScenario(0.5, (VspDemand("vehicles on road", 90, 1.0),)),
            DemandScenario(0.5, (VspDemand("buses and traffic lights", 90, 1.0),)),
        )
        tensor = build_similarity_tensor(scenarios, corpora, provider)
        assert tensor[0, :, 0] == pytest.approx([0.72, 0.697, 0.83], abs=1e-9)
        assert tensor[0, :, 1] == pytest.approx([0.793, 0.661, 0.57], abs=1e-9)

    def test_missing_corpus_names_device(self):
        provider = HashEmbedder()
        scenarios = (DemandScenario(1.0, (VspDemand("x", 1, 1.0),)),)
        with pytest.raises(ConfigurationError, match="device 1"):
            build_similarity_tensor(
                scenarios,
                {0: CategoryCorpus(0, (("a", 1),)), 2: CategoryCorpus(2, (("b", 1),))},
                provider,
            )

    def test_missing_interest_embedding_is_configuration_error(self):
        provider = FileEmbeddings({"a": [1.0, 0.0]})
        scenarios = (DemandScenario(1.0, (VspDemand("unmapped", 1, 1.0),)),)
        corpora = {0: CategoryCorpus(0, (("a", 1),))}
        with pytest.raises(ConfigurationError, match="unmapped"):
            build_similarity_tensor(scenarios, corpora, provider)

    def test_tensor_values_stay_in_unit_interval(self):
        provider = HashEmbedder(dimension=8)
        rng = np.random.default_rng(7)
        words = ["bus", "car", "bike", "tree", "rain", "road", "sign", "lane"]
        scenarios = tuple(
            DemandScenario(
                0.25,
                tuple(VspDemand(str(rng.choice(words)), 5, 1.0) for _ in range(2)),
            )
            for _ in range(4)
        )
        corpora = {
            e: CategoryCorpus(
                e,
                tuple((str(rng.choice(words)) + " scene", int(rng.integers(1, 4))) for _ in range(3)),
            )
            for e in range(3)
        }
        tensor = build_similarity_tensor(scenarios, corpora, provider)
        assert tensor.shape == (2, 3, 4)
        assert np.all(tensor >= 0.0) and np.all(tensor <= 1.0)


class TestCorpusCsv:
    def test_load_bundled_corpora(self):
        corpora = load_corpora_csv(sm.data_file("corpora_demo.csv"))
        assert sorted(corpora) == [0, 1, 2]
        assert corpora[0].total == 2

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigurationError, match="header"):
            load_corpora_csv(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("device_id,category,count\nx,cat,1\n")
        with pytest.raises(ConfigurationError, match="malformed"):
            load_corpora_csv(path)

    def test_nonpositive_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("device_id,category,count\n0,cat,0\n")
        with pytest.raises(ConfigurationError, match=r"bad\.csv:2: .*positive"):
            load_corpora_csv(path)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("0,a,1\n\n\n0,b,0\n", 5, "corpus counts must be positive integers, got 0 for 'b'"),
            ('0,"two\nlines",x\n', 3, "malformed corpus row {'device_id': '0', 'category': 'two\\nlines', 'count': 'x'}"),
            ("\n0,a\n", 3, "malformed corpus row {'device_id': '0', 'category': 'a', 'count': None}"),
        ],
    )
    def test_error_names_the_file_line_the_record_ends_on(self, tmp_path, text, line, message):
        path = tmp_path / "bad.csv"
        path.write_text("device_id,category,count\n" + text)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(f'{path}:{line}: {message}')}$"):
            load_corpora_csv(path)

    def test_columns_in_any_order_among_others(self, tmp_path):
        path = tmp_path / "corpora.csv"
        path.write_text("count,note,category,device_id\n2,x,b,1\n1,y,a,0\n3,z,c,1\n")
        assert load_corpora_csv(path) == {
            1: CategoryCorpus(1, (("b", 2), ("c", 3))),
            0: CategoryCorpus(0, (("a", 1),)),
        }

    def test_negative_count_is_configuration_error_on_cli(self, tmp_path):
        problem = copy_corpus_demo(tmp_path, "device_id,category,count\n0,sedans merging at the junction,-3\n")
        result = CliRunner().invoke(main, ["--json-errors", "similarity", "--problem", str(problem)])
        assert result.exit_code == 1
        payload = json.loads(result.stderr)
        assert payload["type"] == "ConfigurationError"
        assert re.search(r"corpora\.csv:2: .*-3", payload["error"])


def test_embedding_beyond_float_range_is_configuration_error_on_cli(tmp_path):
    problem = copy_corpus_demo(tmp_path, sm.data_file("corpora_demo.csv").read_text())
    embeddings = json.loads((tmp_path / "embeddings_demo.json").read_text())
    embeddings["bus lane with traffic signals"] = [1, 10**400]
    (tmp_path / "embeddings_demo.json").write_text(json.dumps(embeddings))
    result = CliRunner().invoke(main, ["--json-errors", "similarity", "--problem", str(problem)])
    assert result.exit_code == 1
    assert json.loads(result.stderr) == {
        "error": "embedding for 'bus lane with traffic signals' holds an integer beyond the range of a float",
        "type": "ConfigurationError",
    }


def copy_corpus_demo(tmp_path, corpus_csv: str):
    """The bundled corpus problem in ``tmp_path``, with its corpus CSV replaced."""
    for name in ("interest_switch_corpus.json", "embeddings_demo.json"):
        shutil.copy(sm.data_file(name), tmp_path / name)
    doc = json.loads((tmp_path / "interest_switch_corpus.json").read_text())
    doc["similarity"]["corpus_file"] = "corpora.csv"
    (tmp_path / "interest_switch_corpus.json").write_text(json.dumps(doc))
    (tmp_path / "corpora.csv").write_text(corpus_csv)
    return tmp_path / "interest_switch_corpus.json"


class TestCorpusDeviceIds:
    BUNDLED = sm.data_file("corpora_demo.csv").read_text()

    def test_extra_device_named(self, tmp_path):
        problem = copy_corpus_demo(tmp_path, self.BUNDLED + "3,sedans merging at the junction,1\n")
        with pytest.raises(ConfigurationError, match=r"corpora\.csv: .*missing \[\], extra \[3\]$"):
            load_problem(problem)

    def test_missing_device_named(self, tmp_path):
        rows = [line for line in self.BUNDLED.splitlines() if not line.startswith("1,")]
        problem = copy_corpus_demo(tmp_path, "\n".join(rows) + "\n")
        with pytest.raises(ConfigurationError, match=r"corpora\.csv: .*missing \[1\], extra \[\]$"):
            load_problem(problem)


# ---------------------------------------------------------------------------
# the vectorized build against a plain loop over the documented rule


def loop_reference(scenarios, corpora, provider) -> np.ndarray:
    """(vsp, device, scenario) scores: per pair, sum(count * max(0, cosine)) / sum(count)."""
    tensor = np.zeros((len(scenarios[0].per_vsp), len(corpora), len(scenarios)))
    for i, scen in enumerate(scenarios):
        for w, demand in enumerate(scen.per_vsp):
            interest = provider.embed(demand.interest_key)
            for e in range(len(corpora)):
                weighted = sum(
                    count * max(0.0, cosine_match(interest, provider.embed(text)))
                    for text, count in corpora[e].entries
                )
                tensor[w, e, i] = weighted / corpora[e].total
    return tensor


class DictProvider(EmbeddingProvider):
    """Returns stored vectors unchecked, so the build's own checks can be tested."""

    def __init__(self, vectors):
        self.vectors = vectors

    def embed(self, text):
        return np.asarray(self.vectors[text], dtype=np.float64)


class CountingProvider(EmbeddingProvider):
    def __init__(self):
        self.inner = HashEmbedder(dimension=16)
        self.calls = Counter()

    def embed(self, text):
        self.calls[text] += 1
        return self.inner.embed(text)


WORDS = ["bus", "car", "bike", "tree", "rain", "road", "sign", "lane", "truck", "light"]


@st.composite
def corpus_problems(draw, texts):
    """Scenarios and corpora over ``texts``: keys shared between scenarios,
    texts repeated across devices and duplicated within one corpus."""
    num_vsps = draw(st.integers(1, 3))
    num_devices = draw(st.integers(1, 5))
    keys = draw(st.lists(st.sampled_from(texts), min_size=1, max_size=3))
    scenarios = tuple(
        DemandScenario(
            0.5,
            tuple(VspDemand(draw(st.sampled_from(keys)), 5, 1.0) for _ in range(num_vsps)),
        )
        for _ in range(draw(st.integers(1, 4)))
    )
    entry = st.tuples(st.sampled_from(texts), st.integers(1, 20))
    corpora = {
        e: CategoryCorpus(e, tuple(draw(st.lists(entry, min_size=1, max_size=6))))
        for e in range(num_devices)
    }
    return scenarios, corpora


@st.composite
def file_embedding_problems(draw):
    dim = draw(st.integers(2, 6))
    texts = [f"text {j}" for j in range(draw(st.integers(2, 8)))]
    coords = st.floats(min_value=-10, max_value=10)
    vectors = {
        text: draw(st.lists(coords, min_size=dim, max_size=dim).filter(lambda v: any(abs(x) > 1e-3 for x in v)))
        for text in texts
    }
    return (*draw(corpus_problems(texts)), FileEmbeddings(vectors))


@st.composite
def hash_embedding_problems(draw):
    phrase = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join)
    texts = draw(st.lists(phrase, min_size=2, max_size=8, unique=True))
    return (*draw(corpus_problems(texts)), HashEmbedder(dimension=draw(st.sampled_from([4, 8, 64]))))


class TestBuildMatchesLoop:
    # Cosines carry an absolute rounding error of a few ulp of 1 in either
    # form, so scores near 0 need an absolute floor beside the relative bound.
    RTOL, ATOL = 1e-12, 1e-14

    @settings(max_examples=150, deadline=None)
    @given(problem=file_embedding_problems())
    def test_file_embeddings(self, problem):
        scenarios, corpora, provider = problem
        got = build_similarity_tensor(scenarios, corpora, provider)
        np.testing.assert_allclose(got, loop_reference(scenarios, corpora, provider), rtol=self.RTOL, atol=self.ATOL)

    @settings(max_examples=100, deadline=None)
    @given(problem=hash_embedding_problems())
    def test_hash_embedder(self, problem):
        scenarios, corpora, provider = problem
        got = build_similarity_tensor(scenarios, corpora, provider)
        np.testing.assert_allclose(got, loop_reference(scenarios, corpora, provider), rtol=self.RTOL, atol=self.ATOL)

    def test_each_unique_text_embedded_once(self):
        provider = CountingProvider()
        scenarios = (
            DemandScenario(0.5, (VspDemand("red bus", 1, 1.0), VspDemand("wet road", 1, 1.0))),
            DemandScenario(0.5, (VspDemand("wet road", 1, 1.0), VspDemand("red bus", 1, 1.0))),
        )
        corpora = {
            0: CategoryCorpus(0, (("bus lane", 2), ("wet road", 1), ("bus lane", 1))),
            1: CategoryCorpus(1, (("bus lane", 1), ("tree", 5))),
            2: CategoryCorpus(2, (("tree", 1),)),
        }
        build_similarity_tensor(scenarios, corpora, provider)
        assert provider.calls == Counter({"red bus": 1, "wet road": 1, "bus lane": 1, "tree": 1})


class TestBuildErrors:
    """The build raises the same type and message as the scalar ``cosine_match`` path."""

    SCENARIOS = (DemandScenario(1.0, (VspDemand("k", 1, 1.0),)),)

    @pytest.mark.parametrize(
        "vectors, corpus_vector, error, message",
        [
            ({"k": [1.0, 0.0]}, [1.0, 0.0, 0.0], ValueError, "dimension mismatch: (2,) vs (3,)"),
            ({"k": [1.0, 0.0]}, [1.0, float("inf")], ValueError, "embeddings must be finite"),
            ({"k": [float("nan"), 0.0]}, [1.0, 0.0], ValueError, "embeddings must be finite"),
            ({"k": [1.0, 0.0]}, [0.0, 0.0], ValueError, "cosine match is undefined for a zero-norm vector"),
            ({"k": [0.0, 0.0]}, [1.0, 0.0], ValueError, "cosine match is undefined for a zero-norm vector"),
        ],
    )
    def test_bad_vectors(self, vectors, corpus_vector, error, message):
        provider = DictProvider({**vectors, "a": corpus_vector})
        corpora = {0: CategoryCorpus(0, (("a", 1),))}
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build_similarity_tensor(self.SCENARIOS, corpora, provider)

    def test_empty_corpus(self):
        provider = DictProvider({"k": [1.0, 0.0], "a": [1.0, 0.0]})
        corpora = {0: CategoryCorpus(0, (("a", 1),)), 1: CategoryCorpus(1, ())}
        with pytest.raises(ValueError, match="^device 1 has an empty corpus$"):
            build_similarity_tensor(self.SCENARIOS, corpora, provider)

    def test_unknown_corpus_text(self):
        provider = FileEmbeddings({"k": [1.0, 0.0]})
        corpora = {0: CategoryCorpus(0, (("zzz", 1),))}
        with pytest.raises(ConfigurationError, match="^no embedding for text 'zzz'$"):
            build_similarity_tensor(self.SCENARIOS, corpora, provider)
