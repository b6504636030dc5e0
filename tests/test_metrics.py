import numpy as np
import pytest

from deskst.metrics import MetricsError, bleu, bleu_report, score_corpus, ter, wer


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
        from deskst.metrics import _edit_distance, _ter_pair

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
