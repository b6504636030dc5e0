"""Corpus-level translation/recognition metrics: BLEU, TER, and WER.

All scorers are pure functions on whitespace-tokenized sentence strings.
BLEU is unsmoothed corpus BLEU (clipped 1-4 gram precisions, geometric mean,
brevity penalty). TER counts insertions/deletions/substitutions plus block
shifts found by a greedy search: repeatedly apply the single shift that most
reduces the edit distance. WER is plain corpus-level Levenshtein.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, asdict

__all__ = ["MetricReport", "MetricsError", "bleu", "bleu_report", "ter", "wer", "score_corpus"]

MAX_SHIFT_BLOCK = 10


class MetricsError(Exception):
    pass


@dataclass
class MetricReport:
    n_sentences: int
    bleu: float
    ngram_precisions: tuple[float, float, float, float]
    brevity_penalty: float
    ter: float | None = None
    wer: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _tokenize(corpus: list[str], case_sensitive: bool) -> list[list[str]]:
    return [(s if case_sensitive else s.lower()).split() for s in corpus]


def _check_pair(hyps: list[str], refs: list[str]) -> None:
    if len(hyps) != len(refs):
        raise MetricsError(f"corpus size mismatch: {len(hyps)} hypotheses vs {len(refs)} references")
    if not refs:
        raise MetricsError("empty corpus")


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu_report(hyps: list[str], refs: list[str], case_sensitive: bool = True) -> MetricReport:
    """Corpus BLEU with the clipped n-gram counts and brevity penalty."""
    _check_pair(hyps, refs)
    hyp_toks = _tokenize(hyps, case_sensitive)
    ref_toks = _tokenize(refs, case_sensitive)
    matches = [0] * 4
    totals = [0] * 4
    hyp_len = ref_len = 0
    for h, r in zip(hyp_toks, ref_toks):
        hyp_len += len(h)
        ref_len += len(r)
        for n in range(1, 5):
            h_counts = _ngrams(h, n)
            r_counts = _ngrams(r, n)
            totals[n - 1] += max(0, len(h) - n + 1)
            matches[n - 1] += sum(min(c, r_counts[g]) for g, c in h_counts.items())
    precisions = tuple(m / t if t else 0.0 for m, t in zip(matches, totals))
    if hyp_len == 0:
        return MetricReport(len(hyps), 0.0, precisions, 0.0)
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    # Orders with no hypothesis n-grams at all (corpus shorter than n) are
    # undefined and excluded; a zero match count with available n-grams
    # zeroes corpus BLEU (no smoothing).
    available = [(m, t) for m, t in zip(matches, totals) if t > 0]
    if not available or any(m == 0 for m, _ in available):
        value = 0.0
    else:
        value = bp * math.exp(sum(math.log(m / t) for m, t in available) / len(available)) * 100.0
    return MetricReport(len(hyps), value, precisions, bp)


def bleu(hyps: list[str], refs: list[str], case_sensitive: bool = True) -> float:
    return bleu_report(hyps, refs, case_sensitive).bleu


def _edit_distance(a: list[str], b: list[str]) -> int:
    if not a:
        return len(b)
    prev = list(range(len(b) + 1))
    for i, tok in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j in range(1, len(b) + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (tok != b[j - 1]))
        prev = cur
    return prev[-1]


def _edit_rate(hyps: list[str], refs: list[str], edits) -> float:
    """Corpus ``edits(hyp tokens, ref tokens)`` over total reference tokens, in percent."""
    _check_pair(hyps, refs)
    hyp_toks = _tokenize(hyps, True)
    ref_toks = _tokenize(refs, True)
    total_ref = sum(len(r) for r in ref_toks)
    if total_ref == 0:
        raise MetricsError("empty reference corpus")
    return 100.0 * sum(edits(h, r) for h, r in zip(hyp_toks, ref_toks)) / total_ref


def wer(hyps: list[str], refs: list[str]) -> float:
    """Corpus Levenshtein edits over total reference tokens, in percent."""
    return _edit_rate(hyps, refs, _edit_distance)


def _ref_block_positions(ref: list[str]) -> dict[tuple[str, ...], list[int]]:
    index: dict[tuple[str, ...], list[int]] = {}
    for n in range(1, min(len(ref), MAX_SHIFT_BLOCK) + 1):
        for i in range(len(ref) - n + 1):
            index.setdefault(tuple(ref[i : i + n]), []).append(i)
    return index


def _best_shift(hyp: list[str], ref: list[str], current: int, index) -> tuple[int, list[str]] | None:
    """The block shift that most reduces edit distance, or None.

    Candidate blocks must match a reference sub-sequence; candidate target
    positions are those reference occurrences. Ties break deterministically
    toward the smallest (start, length, destination).
    """
    best = None
    for i in range(len(hyp)):
        for n in range(1, min(MAX_SHIFT_BLOCK, len(hyp) - i) + 1):
            block = tuple(hyp[i : i + n])
            spots = index.get(block)
            if not spots:
                continue
            rest = hyp[:i] + hyp[i + n :]
            for j_ref in spots:
                j = min(j_ref, len(rest))
                if j == i:
                    continue  # no-op move
                moved = rest[:j] + list(block) + rest[j:]
                d = _edit_distance(moved, ref)
                key = (d, i, n, j)
                if d < current and (best is None or key < best[0]):
                    best = (key, moved)
    if best is None:
        return None
    return best[0][0], best[1]


def _ter_pair(hyp: list[str], ref: list[str]) -> int:
    """Edits + shifts for one sentence under the greedy shift heuristic."""
    current = _edit_distance(hyp, ref)
    shifts = 0
    index = _ref_block_positions(ref)
    work = list(hyp)
    while True:
        found = _best_shift(work, ref, current, index)
        if found is None:
            break
        current, work = found
        shifts += 1
    return current + shifts


def ter(hyps: list[str], refs: list[str]) -> float:
    """Translation edit rate: (edits + block shifts) / reference length."""
    return _edit_rate(hyps, refs, _ter_pair)


def score_corpus(hyps: list[str], refs: list[str], case_sensitive: bool = True) -> MetricReport:
    """BLEU report extended with TER and WER. Without ``case_sensitive``
    both corpora are lowercased once, for all three metrics."""
    if not case_sensitive:
        hyps, refs = [s.lower() for s in hyps], [s.lower() for s in refs]
    report = bleu_report(hyps, refs)
    report.ter = ter(hyps, refs)
    report.wer = wer(hyps, refs)
    return report
