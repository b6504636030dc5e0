"""Corpus-level translation/recognition metrics: BLEU, TER, and WER.

All scorers are pure functions on sentences, each a string split on
whitespace or a list of its tokens. BLEU is unsmoothed corpus BLEU (clipped
1-4 gram precisions, geometric mean, brevity penalty). TER (Snover et al.
2006, "A Study of Translation Edit Rate with Targeted Human Annotation")
counts insertions/deletions/substitutions plus block shifts found by a
greedy search: repeatedly apply the single shift that most reduces the edit
distance. WER is plain corpus-level Levenshtein.

Both edit rates count edits with the bit-parallel Levenshtein distance of
Myers 1999 ("A fast bit-vector algorithm for approximate string matching
based on dynamic programming", JACM 46(3)), in Hyyrö's form for a global
distance (Hyyrö 2001, "Explaining and extending the bit-parallel approximate
string matching algorithm of Myers"). It walks the hypothesis one token at a
time and keeps one column of the Levenshtein table as two bit vectors over
the reference positions, the +1 and -1 steps between vertically adjacent
cells (every step is -1, 0 or +1), and reads the distance off the last row.
The result is exact: each token updates the column by the table's own
recurrence, evaluated for all positions at once with bitwise operations and
one addition, whose carry chain resolves the dependence of a cell on the one
above it. The vectors are Python ints, so a reference of any length fits,
and the reference's per-token match masks are built once per sentence pair
and reused for every shift TER scores.
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


Corpus = list[str] | list[list[str]]  # sentences, or their tokens


def _tokenize(corpus: Corpus, case_sensitive: bool = True) -> list[list[str]]:
    """Each sentence as its tokens: a string is split on whitespace, a list
    is taken as already split."""
    toks = [s.split() if isinstance(s, str) else s for s in corpus]
    return toks if case_sensitive else [[t.lower() for t in s] for s in toks]


def _check_pair(hyps: Corpus, refs: Corpus) -> None:
    if len(hyps) != len(refs):
        raise MetricsError(f"corpus size mismatch: {len(hyps)} hypotheses vs {len(refs)} references")
    if not refs:
        raise MetricsError("empty corpus")


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu_report(hyps: Corpus, refs: Corpus, case_sensitive: bool = True) -> MetricReport:
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


def bleu(hyps: Corpus, refs: Corpus, case_sensitive: bool = True) -> float:
    return bleu_report(hyps, refs, case_sensitive).bleu


def _distance_to(ref: list[str]):
    """The function giving a token list's Levenshtein distance to ``ref``,
    bit-parallel over the reference positions (module docstring). Bit i of
    ``pv`` (``mv``) says the cell in row i + 1 of the current column is one
    more (less) than the cell above it; ``score`` is the last row's cell."""
    m = len(ref)
    if m == 0:
        return len
    eqs: dict[str, int] = {}
    for i, tok in enumerate(ref):
        eqs[tok] = eqs.get(tok, 0) | 1 << i
    full, last = (1 << m) - 1, 1 << (m - 1)

    def distance(hyp: list[str]) -> int:
        pv, mv, score = full, 0, m
        for tok in hyp:
            eq = eqs.get(tok, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | ~(xh | pv)  # horizontal +1 and -1 steps
            mh = pv & xh
            if ph & last:
                score += 1
            elif mh & last:
                score -= 1
            ph = ph << 1 | 1  # row 0 of a global distance steps +1
            pv = (mh << 1 | ~(xv | ph)) & full
            mv = ph & xv
        return score

    return distance


def _edit_distance(hyp: list[str], ref: list[str]) -> int:
    return _distance_to(ref)(hyp)


def _edit_rate(hyps: Corpus, refs: Corpus, edits) -> float:
    """Corpus ``edits(hyp tokens, ref tokens)`` over total reference tokens, in percent."""
    _check_pair(hyps, refs)
    hyp_toks = _tokenize(hyps)
    ref_toks = _tokenize(refs)
    total_ref = sum(len(r) for r in ref_toks)
    if total_ref == 0:
        raise MetricsError("empty reference corpus")
    return 100.0 * sum(edits(h, r) for h, r in zip(hyp_toks, ref_toks)) / total_ref


def wer(hyps: Corpus, refs: Corpus) -> float:
    """Corpus Levenshtein edits over total reference tokens, in percent."""
    return _edit_rate(hyps, refs, _edit_distance)


def _ref_block_positions(ref: list[str]) -> dict[tuple[str, ...], list[int]]:
    index: dict[tuple[str, ...], list[int]] = {}
    for n in range(1, min(len(ref), MAX_SHIFT_BLOCK) + 1):
        for i in range(len(ref) - n + 1):
            index.setdefault(tuple(ref[i : i + n]), []).append(i)
    return index


def _best_shift(hyp: list[str], distance, current: int, index) -> tuple[int, list[str]] | None:
    """The block shift that most reduces ``distance`` (to the reference),
    or None.

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
                d = distance(moved)
                key = (d, i, n, j)
                if d < current and (best is None or key < best[0]):
                    best = (key, moved)
    if best is None:
        return None
    return best[0][0], best[1]


def _ter_pair(hyp: list[str], ref: list[str]) -> int:
    """Edits + shifts for one sentence under the greedy shift heuristic."""
    distance = _distance_to(ref)
    current = distance(hyp)
    shifts = 0
    index = _ref_block_positions(ref)
    work = list(hyp)
    while True:
        found = _best_shift(work, distance, current, index)
        if found is None:
            break
        current, work = found
        shifts += 1
    return current + shifts


def ter(hyps: Corpus, refs: Corpus) -> float:
    """Translation edit rate: (edits + block shifts) / reference length."""
    return _edit_rate(hyps, refs, _ter_pair)


def score_corpus(hyps: Corpus, refs: Corpus, case_sensitive: bool = True) -> MetricReport:
    """BLEU report extended with TER and WER. Each corpus is split into
    tokens once, and without ``case_sensitive`` lowercased once, for all
    three metrics."""
    hyps, refs = _tokenize(hyps, case_sensitive), _tokenize(refs, case_sensitive)
    report = bleu_report(hyps, refs)
    report.ter = ter(hyps, refs)
    report.wer = wer(hyps, refs)
    return report
