import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deskst.metrics import MAX_SHIFT_BLOCK, MetricsError, _edit_distance, bleu, bleu_report, score_corpus, ter, wer


def dp_edit_distance(a: list[str], b: list[str]) -> int:
    """Levenshtein distance by the full dynamic-programming table, row by
    row; the test oracle for the bit-parallel distance."""
    if not a:
        return len(b)
    prev = list(range(len(b) + 1))
    for i, tok in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j in range(1, len(b) + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (tok != b[j - 1]))
        prev = cur
    return prev[-1]


def oracle_ter_pair(hyp: list[str], ref: list[str]) -> int:
    """Edits + shifts for one sentence: the greedy shift search, scoring
    every candidate shift with the DP distance. Blocks of up to
    MAX_SHIFT_BLOCK tokens that occur in the reference move to one of their
    reference positions; each round applies the shift of least distance,
    ties broken toward the smallest (start, length, destination), while one
    lowers the distance."""
    index: dict[tuple[str, ...], list[int]] = {}
    for n in range(1, min(len(ref), MAX_SHIFT_BLOCK) + 1):
        for i in range(len(ref) - n + 1):
            index.setdefault(tuple(ref[i : i + n]), []).append(i)
    current, shifts, work = dp_edit_distance(hyp, ref), 0, list(hyp)
    while True:
        best = None
        for i in range(len(work)):
            for n in range(1, min(MAX_SHIFT_BLOCK, len(work) - i) + 1):
                block = tuple(work[i : i + n])
                rest = work[:i] + work[i + n :]
                for j_ref in index.get(block, []):
                    j = min(j_ref, len(rest))
                    if j == i:
                        continue
                    moved = rest[:j] + list(block) + rest[j:]
                    key = (dp_edit_distance(moved, ref), i, n, j)
                    if key[0] < current and (best is None or key < best[0]):
                        best = (key, moved)
        if best is None:
            return current + shifts
        (current, *_), work = best
        shifts += 1


def oracle_rate(hyps: list[str], refs: list[str], edits) -> float:
    total = sum(len(r.split()) for r in refs)
    return 100.0 * sum(edits(h.split(), r.split()) for h, r in zip(hyps, refs)) / total


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------


def test_bleu_identical_corpus_is_100():
    corpus = ["a b c d e", "x y z", "q"]
    assert bleu(corpus, corpus) == 100.0


def test_bleu_all_empty_hypotheses_zero():
    assert bleu(["", ""], ["a b", "c"]) == 0.0


def test_bleu_hand_enumerated_pair():
    # hyp "a b c d e" vs ref "a b x d e":
    #   p1 = 4/5 (a, b, d, e), p2 = 2/4 (ab, de), p3 = 0/3, p4 = 0/2
    # a zero precision with no smoothing zeroes corpus BLEU; BP = 1.
    report = bleu_report(["a b c d e"], ["a b x d e"])
    assert report.ngram_precisions[0] == pytest.approx(4 / 5)
    assert report.ngram_precisions[1] == pytest.approx(2 / 4)
    assert report.ngram_precisions[2] == 0.0
    assert report.ngram_precisions[3] == 0.0
    assert report.brevity_penalty == 1.0
    assert report.bleu == 0.0


def test_bleu_corpus_level_value_with_oracle():
    # two sentences, all 4-gram orders covered; verify against a direct
    # clipped-count computation
    hyps = ["the cat sat on the mat", "a b c d"]
    refs = ["the cat sat on a mat", "a b c d"]
    report = bleu_report(hyps, refs)
    # sentence 1: p1 5/6 (the x2? clip: ref has the x1 + cat sat on mat a ->
    # matches: the(min(2,1)=1) cat sat on mat = 5), p2: 3/5+4/3... compute by hand below
    h1, r1 = hyps[0].split(), refs[0].split()

    def clipped(h, r, n):
        from collections import Counter

        hc = Counter(tuple(h[i : i + n]) for i in range(len(h) - n + 1))
        rc = Counter(tuple(r[i : i + n]) for i in range(len(r) - n + 1))
        return sum(min(c, rc[g]) for g, c in hc.items()), max(0, len(h) - n + 1)

    import math

    precisions = []
    for n in range(1, 5):
        m1, t1 = clipped(h1, r1, n)
        m2, t2 = clipped(hyps[1].split(), refs[1].split(), n)
        precisions.append((m1 + m2) / (t1 + t2))
    expected = math.exp(sum(math.log(p) for p in precisions) / 4) * 100.0  # bp=1, equal lengths
    assert report.bleu == pytest.approx(expected, rel=1e-12)


def test_bleu_brevity_penalty():
    report = bleu_report(["a b"], ["a b c d"])
    import math

    assert report.brevity_penalty == pytest.approx(math.exp(1 - 4 / 2))


def test_bleu_case_flag():
    assert bleu(["A b"], ["a b"], case_sensitive=True) < 100.0
    assert bleu(["A b"], ["a b"], case_sensitive=False) == 100.0


def test_bleu_order_invariance():
    hyps = ["a b c", "d e", "f g h i"]
    refs = ["a b d", "d e", "f h g i"]
    perm = [2, 0, 1]
    assert bleu(hyps, refs) == bleu([hyps[i] for i in perm], [refs[i] for i in perm])


def test_corpus_size_mismatch_and_empty():
    with pytest.raises(MetricsError):
        bleu(["a"], ["a", "b"])
    with pytest.raises(MetricsError):
        bleu([], [])


# ---------------------------------------------------------------------------
# WER
# ---------------------------------------------------------------------------


def test_wer_identical_zero():
    assert wer(["a b c"], ["a b c"]) == 0.0


def test_wer_insertion():
    assert wer(["a b c"], ["a c"]) == pytest.approx(50.0)


def test_wer_substitution():
    assert wer(["a x c"], ["a b c"]) == pytest.approx(100.0 / 3)


def test_wer_is_ratio_of_sums():
    # one perfect long sentence, one bad short one: corpus WER is summed
    # edits over summed lengths, not a mean of per-sentence rates
    hyps = ["a b c d e f g h", "x"]
    refs = ["a b c d e f g h", "y"]
    assert wer(hyps, refs) == pytest.approx(100.0 * 1 / 9)
    with pytest.raises(MetricsError):
        wer([""], [""])


# ---------------------------------------------------------------------------
# TER
# ---------------------------------------------------------------------------


def test_ter_identical_zero():
    assert ter(["a b c"], ["a b c"]) == 0.0


def test_ter_single_shift_worked_example():
    # "b a" -> shift "b" after "a" -> exact match: 1 shift / 2 tokens = 50%
    assert ter(["b a"], ["a b"]) == pytest.approx(50.0)


def test_ter_pure_substitution_no_shift():
    assert ter(["a x c"], ["a b c"]) == pytest.approx(100.0 / 3)


def test_ter_shift_only_helps():
    rng = np.random.default_rng(0)
    vocab = list("abcdefg")
    for _ in range(50):
        h = " ".join(rng.choice(vocab, size=rng.integers(1, 8)))
        r = " ".join(rng.choice(vocab, size=rng.integers(1, 8)))
        from deskst.metrics import _ter_pair

        assert _ter_pair(h.split(), r.split()) <= _edit_distance(h.split(), r.split())


def test_ter_block_shift_beats_edit_distance():
    # moving "c" from front to back: 1 shift instead of delete+insert
    hyp = ["c a b"]
    ref = ["a b c"]
    assert ter(hyp, ref) == pytest.approx(100.0 / 3)


def test_ter_corpus_aggregation():
    hyps = ["b a", "a x c"]
    refs = ["a b", "a b c"]
    # 1 shift + 1 substitution over 5 reference tokens
    assert ter(hyps, refs) == pytest.approx(100.0 * 2 / 5)


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------


def test_score_corpus_combined():
    report = score_corpus(["a b c"], ["a b c"])
    assert report.bleu == 100.0
    assert report.ter == 0.0
    assert report.wer == 0.0
    assert report.n_sentences == 1
    d = report.to_dict()
    assert set(d) == {"n_sentences", "bleu", "ngram_precisions", "brevity_penalty", "ter", "wer"}


def test_case_insensitive_scoring_lowercases_for_every_metric():
    report = score_corpus(["A b c d"], ["a b c d"], case_sensitive=False)
    assert (report.bleu, report.ter, report.wer) == (100.0, 0.0, 0.0)
    strict = score_corpus(["A b c d"], ["a b c d"])
    assert strict.ter == strict.wer == 25.0


def test_metrics_are_pure():
    hyps = ["a b x", "c"]
    refs = ["a b c", "c d"]
    r1 = score_corpus(hyps, refs)
    r2 = score_corpus(hyps, refs)
    assert r1 == r2


# ---------------------------------------------------------------------------
# the bit-parallel distance and the shift search against their oracles
# ---------------------------------------------------------------------------


@st.composite
def token_pairs(draw):
    """Two token lists of 0-80 tokens over an alphabet of 1-12 tokens: empty
    sides, repeats, and references past 64 tokens, whose masks span several
    machine words."""
    alphabet = [f"w{k}" for k in range(draw(st.integers(1, 12)))]
    side = st.lists(st.sampled_from(alphabet), max_size=80)
    return draw(side), draw(side)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(token_pairs())
def test_edit_distance_is_the_dp_distance(pair):
    a, b = pair
    assert _edit_distance(a, b) == dp_edit_distance(a, b)
    assert _edit_distance(b, a) == dp_edit_distance(a, b)


@pytest.mark.parametrize("m", [1, 63, 64, 65, 128, 129])
def test_edit_distance_at_machine_word_edges(m):
    ref = [f"w{i % 7}" for i in range(m)]
    for hyp in ([], ref, ref[::-1], ref[1:], ref + ["w0"], ["x"] * m, ref[: m // 2] + ["x"] + ref[m // 2 :]):
        assert _edit_distance(hyp, ref) == dp_edit_distance(hyp, ref), (m, hyp)


@st.composite
def corpora(draw):
    """(hypotheses, references): 1-4 sentences of 0-9 tokens over an
    alphabet of 1-5 tokens, each reference non-empty, so blocks repeat and
    shifts tie."""
    alphabet = [f"w{k}" for k in range(draw(st.integers(1, 5)))]
    n = draw(st.integers(1, 4))
    sentence = lambda lo: st.lists(st.sampled_from(alphabet), min_size=lo, max_size=9).map(" ".join)
    return draw(st.lists(sentence(0), min_size=n, max_size=n)), draw(st.lists(sentence(1), min_size=n, max_size=n))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(corpora())
def test_ter_wer_and_score_corpus_are_the_oracles(case):
    hyps, refs = case
    want_ter, want_wer = oracle_rate(hyps, refs, oracle_ter_pair), oracle_rate(hyps, refs, dp_edit_distance)
    assert ter(hyps, refs) == want_ter
    assert wer(hyps, refs) == want_wer
    report = score_corpus(hyps, refs)
    assert (report.ter, report.wer) == (want_ter, want_wer)
    assert report.bleu == bleu(hyps, refs)


def test_scorers_take_sentences_already_split():
    hyps, refs = ["a B c", "d a"], ["a b c d", "a d"]
    split = lambda corpus: [s.split() for s in corpus]
    assert ter(split(hyps), split(refs)) == ter(hyps, refs)
    assert wer(split(hyps), split(refs)) == wer(hyps, refs)
    assert bleu_report(split(hyps), split(refs), case_sensitive=False) == bleu_report(hyps, refs, case_sensitive=False)
    assert score_corpus(split(hyps), split(refs), case_sensitive=False) == score_corpus(hyps, refs, case_sensitive=False)
