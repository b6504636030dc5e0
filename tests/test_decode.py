import itertools

import numpy as np
import pytest

from deskst import data, decode, layers, models
from deskst.decode import Hypothesis, beam_decode, beam_search, cascade, cascade_batch, greedy_decode_batch
from deskst.layers import EncoderStates
from deskst.models import ADAPTER_POSITIONS, ModelConfig, build, init_store
from deskst.tensor import NonFiniteError, NumericsError, Tensor, no_grad


def tiny_setup(seed=0, topology="direct", vocab=4, adapter=False, **cfg_over):
    ds = data.generate(seed=seed, n_examples=6, vocab_size=vocab, len_range=(2, 3), frames_per_token_range=(5, 6), noise_sigma=0.2)
    kw = dict(emb_size=5, enc_hidden=4, enc_layers=1, dec_hidden=5, attn_dim=4, pool_schedule=(2,), dropout=0.0)
    kw.update(cfg_over)
    cfg = ModelConfig.desk(ds.src_vocab, ds.tgt_vocab, **kw)
    graph = build(cfg, topology, adapter_position=ADAPTER_POSITIONS[topology] if adapter else None)
    store = init_store(graph, seed)
    return ds, graph, store


def reference_beam_decode(graph, store, x, beam, max_len, len_norm=0.6, direction=None):
    """The one-utterance beam search that beam_search replaced, kept as its
    oracle: Python tuples per candidate, sorted by (-score, token sequence)."""
    direction = direction or decode.default_direction(graph.topology)
    batch = decode._input_batch(graph, [x], direction)
    with no_grad():
        base_memories, prefix, vocab = decode.prepare_memories(graph, store, batch, direction)
        memories = [
            (name, EncoderStates(Tensor(np.repeat(m.states.data, beam, axis=0)), np.repeat(m.mask, beam, axis=0)))
            for name, m in base_memories
        ]
        core = models._DecoderCore(graph, store, prefix, memories, vocab.size)
        layers, feedback = core.initial_state(beam)
        prev = np.full(beam, vocab.bos_id, dtype=np.int64)
        scores = np.zeros(beam)
        tokens: list[tuple[int, ...]] = [() for _ in range(beam)]
        n_active = 1  # lane slots beyond n_active are dummies
        finished: list[Hypothesis] = []
        for _ in range(max_len):
            if n_active == 0:
                break
            probs, ctx, new_feedback = core.step(prev, layers, feedback, False, None)
            logp = np.log(np.maximum(probs.data, decode._LOGP_FLOOR))
            candidates = []
            for li in range(n_active):
                for v in range(vocab.size):
                    candidates.append((scores[li] + logp[li, v], tokens[li] + (v,), li, v))
            candidates.sort(key=lambda c: (-c[0], c[1]))
            survivors = []
            for score, toks, li, v in candidates[:beam]:
                if v == vocab.eos_id:
                    finished.append(Hypothesis(tokens=list(toks), score=float(score), finished=True))
                else:
                    survivors.append((score, toks, li, v))
            if not survivors:
                n_active = 0
                break
            parents = np.zeros(beam, dtype=np.int64)
            step_tokens = np.full(beam, vocab.pad_id, dtype=np.int64)
            for slot, (score, toks, li, v) in enumerate(survivors):
                parents[slot] = li
                step_tokens[slot] = v
                scores[slot] = score
                tokens[slot] = toks
            layers = [(Tensor(h.data[parents]), Tensor(c.data[parents])) for h, c in layers]
            feedback = [Tensor(fb.data[parents]) for fb in new_feedback]
            ctx = Tensor(ctx.data[parents])
            step_mask = (np.arange(beam) < len(survivors)).astype(np.float64)
            layers = core.advance(step_tokens, ctx, layers, step_mask)
            prev = step_tokens
            n_active = len(survivors)
        if n_active > 0:  # ran out of steps with alive lanes
            for li in range(n_active):
                finished.append(Hypothesis(tokens=list(tokens[li]), score=float(scores[li]), finished=False))
    done = [h for h in finished if h.finished]
    pool = done if done else finished
    pool.sort(key=lambda h: (-h.normalized(len_norm), tuple(h.tokens)))
    return pool[0]


def _inputs(ds, direction):
    return [ex.f.ids if direction == "mt" else ex.x.frames for ex in ds.examples]


def assert_matches_reference(graph, store, ds, beam, max_len, direction, len_norm=0.6):
    """beam_search on the padded batch of every example equals the oracle run
    on each example alone: same tokens and flags, scores within 1e-12."""
    batch = data.batch(ds, len(ds))[0][0]
    got = beam_search(graph, store, batch, beam, max_len, len_norm, direction)
    expect = [reference_beam_decode(graph, store, x, beam, max_len, len_norm, direction) for x in _inputs(ds, direction)]
    assert [h.tokens for h in got] == [h.tokens for h in expect]
    assert [h.finished for h in got] == [h.finished for h in expect]
    np.testing.assert_allclose([h.score for h in got], [h.score for h in expect], rtol=0, atol=1e-12)
    return got


DECODABLE = [
    ("direct", "st", False),
    ("direct", "st", True),
    ("one2many", "st", True),
    ("one2many", "asr", False),
    ("many2one", "st", False),
    ("many2one", "mt", False),
    ("asr", "asr", False),
    ("mt", "mt", False),
    ("tied_cascade", "st", False),
    ("tied_cascade", "st", True),
    ("tied_cascade", "asr", False),
    ("tied_triangle", "st", False),
    ("tied_triangle", "st", True),
    ("tied_triangle", "asr", True),
]


@pytest.mark.parametrize("topology,direction,adapter", DECODABLE)
def test_beam_search_matches_reference_on_every_decodable_pair(topology, direction, adapter):
    ds, graph, store = tiny_setup(seed=11, topology=topology, adapter=adapter, dec_hidden=6)  # adapters need even widths
    for beam in (1, 3):
        assert_matches_reference(graph, store, ds, beam, 5, direction)


STACKED = [("direct", "st", False), ("one2many", "asr", False), ("tied_triangle", "st", True)]


@pytest.mark.parametrize("topology,direction,adapter", STACKED)
def test_beam_search_matches_reference_with_a_stacked_decoder(topology, direction, adapter):
    """Two decoder layers: layer 1 reads layer 0's new state."""
    ds, graph, store = tiny_setup(seed=11, topology=topology, adapter=adapter, dec_hidden=6, dec_layers=2)
    for beam in (1, 3):
        assert_matches_reference(graph, store, ds, beam, 5, direction)


POISONED = [("decoder_st.out.w", np.nan), ("decoder_st.lstm.l0.w_hh", np.nan), ("decoder_st.attn.w_keys", np.inf)]


@pytest.mark.parametrize("name,bad", POISONED)
def test_beam_search_rejects_a_planted_non_finite_weight(name, bad):
    ds, graph, store = tiny_setup(seed=15)
    store[name].data.flat[0] = bad
    batch = data.batch(ds, len(ds))[0][0]
    for beam in (1, 3):
        with pytest.raises(NonFiniteError):
            beam_search(graph, store, batch, beam, 4)


def test_teacher_forced_decoder_rejects_a_planted_inf_in_the_keys():
    ds, graph, store = tiny_setup(seed=15)
    store["decoder_st.attn.w_keys"].data.flat[0] = np.inf
    with pytest.raises(NonFiniteError):
        models.forward(graph, store, data.batch(ds, len(ds))[0][0])


def _early_and_late_eos_model():
    """A direct model whose EOS logit leans hard on the attention context, so
    some utterances of the batch emit EOS at step 1 and others never do."""
    ds, graph, store = tiny_setup(seed=0)
    eos, cfg = ds.tgt_vocab.eos_id, graph.config
    w = store["decoder_st.out.w"].data.copy()
    w[cfg.emb_size + cfg.dec_hidden :, eos] *= 100.0
    b = store["decoder_st.out.b"].data.copy()
    b[eos] += 1.0
    store.set("decoder_st.out.w", w)
    store.set("decoder_st.out.b", b)
    return ds, graph, store


@pytest.mark.parametrize("beam", [1, 3, 8**3 + 1])  # the last is wider than all 8^3 sequences
def test_beam_search_matches_reference_on_mixed_length_batch(beam):
    ds, graph, store = _early_and_late_eos_model()
    max_len = 3
    assert len({ex.x.length for ex in ds.examples}) > 1  # the batch is padded
    got = assert_matches_reference(graph, store, ds, beam, max_len, "st")
    eos = ds.tgt_vocab.eos_id
    assert any(h.tokens == [eos] for h in got)
    assert any(len(h.tokens) == max_len and h.tokens[:-1].count(eos) == 0 for h in got)
    if beam < ds.tgt_vocab.size:
        assert any(not h.finished for h in got)  # ran out of steps beside an utterance done at step 1


@pytest.mark.parametrize("beam,expect", [(1, [0, 0, 0]), (3, [0, 0, 0]), (8**3 + 1, "eos")])
def test_beam_search_zero_parameter_model_ties_go_to_lowest_id(beam, expect):
    ds, graph, store = tiny_setup(seed=12)
    for name in store.names():
        store.set(name, np.zeros(graph.shapes[name]))
    got = assert_matches_reference(graph, store, ds, beam, 3, "st")
    # Uniform outputs: every step's top lanes are the lowest ids. A wide beam
    # also keeps [EOS], whose normalized score beats every longer sequence.
    expect = [ds.tgt_vocab.eos_id] if expect == "eos" else expect
    assert all(h.tokens == expect for h in got)


def script_outputs(monkeypatch, vocab, rows):
    """Replace the decoder's output distribution by one that depends only on
    the previous token: rows maps a previous id to {token: probability}, the
    rest of the mass is spread evenly, and unlisted ids give a uniform row."""
    V = vocab.size
    table = np.full((V, V), 1.0 / V)
    for prev, probs in rows.items():
        table[prev] = (1.0 - sum(probs.values())) / (V - len(probs))
        table[prev, list(probs)] = list(probs.values())
    real_predict = layers.DecoderKernel.predict  # beam_search's step

    def scripted_predict(self, prev_ids, *args, **kwargs):
        _, *rest = real_predict(self, prev_ids, *args, **kwargs)
        return table[prev_ids], *rest

    real_step = models._DecoderCore.step  # the oracle's step

    def scripted_step(self, prev_ids, layers, feedback, training, rngs):
        _, ctx, new_feedback = real_step(self, prev_ids, layers, feedback, training, rngs)
        return Tensor(table[prev_ids]), ctx, new_feedback

    monkeypatch.setattr(layers.DecoderKernel, "predict", scripted_predict)
    monkeypatch.setattr(models._DecoderCore, "step", scripted_step)


def test_equal_scores_across_lanes_go_to_the_lowest_token_sequence(monkeypatch):
    """Lane [1] outscores lane [0], yet [0, 1] and [1, 0] tie exactly at step
    2 behind [1, 2]. Beam 2 keeps one of the pair, and it must be [0, 1], the
    lower sequence, whatever the lanes' own order; its extension [0, 1, 2]
    then wins."""
    ds, graph, store = tiny_setup(seed=13)
    vocab = ds.tgt_vocab
    script_outputs(monkeypatch, vocab, {vocab.bos_id: {1: 0.4, 0: 0.3}, 1: {2: 0.35, 0: 0.3}, 0: {1: 0.4}})
    got = assert_matches_reference(graph, store, ds, 2, 3, "st")
    assert all(h.tokens == [0, 1, 2] for h in got)


def test_finished_hypotheses_leave_the_beam(monkeypatch):
    """[EOS] is the best first step and finishes; beam 2 then holds [1, 0] and
    [1, 3], and [1, 3, EOS] wins under len_norm 2. A lane that kept extending
    [EOS] (to [EOS, 2]) would push [1, 3] out."""
    ds, graph, store = tiny_setup(seed=14)
    vocab = ds.tgt_vocab
    eos = vocab.eos_id
    script_outputs(
        monkeypatch,
        vocab,
        {vocab.bos_id: {eos: 0.5, 1: 0.3}, 1: {0: 0.5, 3: 0.3, eos: 0.1}, 0: {eos: 0.1}, 3: {eos: 0.99}, eos: {2: 0.99}},
    )
    got = assert_matches_reference(graph, store, ds, 2, 3, "st", len_norm=2.0)
    assert all(h.tokens == [1, 3, eos] for h in got)


@pytest.mark.parametrize("beam", [1, 4])
def test_utterance_alone_decodes_as_inside_a_padded_batch(beam):
    ds, graph, store = _early_and_late_eos_model()
    batch = data.batch(ds, len(ds))[0][0]
    together = beam_search(graph, store, batch, beam, 4, 0.6, "st")
    alone = [beam_search(graph, store, decode._input_batch(graph, [ex.x.frames], "st"), beam, 4, 0.6, "st")[0] for ex in ds.examples]
    assert [h.tokens for h in together] == [h.tokens for h in alone]
    np.testing.assert_allclose([h.score for h in together], [h.score for h in alone], rtol=0, atol=1e-12)


def test_beam_search_rejects_beam_below_one():
    ds, graph, store = tiny_setup()
    with pytest.raises(NumericsError):
        beam_search(graph, store, data.batch(ds, 2)[0][0], 0, 3)


@pytest.mark.parametrize("max_len", [0, -1])
def test_beam_search_rejects_max_len_below_one(max_len):
    ds, graph, store = tiny_setup()
    with pytest.raises(NumericsError, match="max_len must be >= 1"):
        beam_search(graph, store, data.batch(ds, 2)[0][0], 3, max_len)


def test_greedy_zero_parameter_model_is_deterministic_lowest_id():
    ds, graph, store = tiny_setup()
    for name in store.names():
        store.set(name, np.zeros(graph.shapes[name]))
    hyp = beam_decode(graph, store, ds.examples[0].x.frames, 1, max_len=4)
    # uniform output distribution: ties break to token id 0 every step
    assert hyp.tokens == [0, 0, 0, 0]
    assert not hyp.finished


def test_greedy_max_len_one():
    ds, graph, store = tiny_setup(seed=1)
    hyp = beam_decode(graph, store, ds.examples[0].x.frames, 1, max_len=1)
    assert len(hyp.tokens) == 1


def test_beam_one_equals_greedy_on_random_models():
    rng = np.random.default_rng(2)
    for trial in range(8):
        ds, graph, store = tiny_setup(seed=trial, vocab=4)
        x = ds.examples[int(rng.integers(len(ds)))].x.frames
        g = greedy_decode_batch(graph, store, decode._input_batch(graph, [x], "st"), max_len=7)[0]
        b = beam_decode(graph, store, x, beam=1, max_len=7)
        assert g.tokens == b.tokens, trial
        assert g.score == pytest.approx(b.score, abs=1e-12)
        assert g.finished == b.finished


def test_beam_score_no_worse_than_greedy():
    hits = 0
    for trial in range(25):
        ds, graph, store = tiny_setup(seed=trial + 10, vocab=4)
        x = ds.examples[0].x.frames
        g = beam_decode(graph, store, x, 1, max_len=6)
        b = beam_decode(graph, store, x, beam=6, max_len=6)
        assert b.score >= g.score - 1e-12
        hits += b.score > g.score + 1e-9
    assert hits > 0  # beam search actually finds better hypotheses sometimes


def _exhaustive_best(graph, store, x, vocab, max_len, alpha):
    """Score every token sequence (finished by EOS or cut at max_len)."""

    def prefix_score(tokens):
        memories, prefix, _ = decode.prepare_memories(graph, store, decode._input_batch(graph, [x], "st"), "st")
        core = models._DecoderCore(graph, store, prefix, memories, vocab.size)
        layers, feedback = core.initial_state(1)
        prev = np.array([vocab.bos_id])
        total = 0.0
        for t in tokens:
            probs, ctx, feedback = core.step(prev, layers, feedback, False, None)
            total += float(np.log(probs.data[0, t]))
            layers = core.advance(np.array([t]), ctx, layers, np.ones(1))
            prev = np.array([t])
        return total

    best = None
    with no_grad():
        for length in range(1, max_len + 1):
            for combo in itertools.product(range(vocab.size), repeat=length):
                if vocab.eos_id in combo[:-1]:
                    continue  # EOS only terminates
                finished = combo[-1] == vocab.eos_id
                if not finished and length < max_len:
                    continue  # unfinished hypotheses only exist at the horizon
                hyp = Hypothesis(list(combo), prefix_score(combo), finished)
                key = (not hyp.finished, -hyp.normalized(alpha), tuple(hyp.tokens))
                if best is None or key < best[0]:
                    best = (key, hyp)
    return best[1]


def test_beam_wider_than_search_space_is_exact():
    ds, graph, store = tiny_setup(seed=3, vocab=4)  # total vocab 8
    x = ds.examples[0].x.frames
    vocab = ds.tgt_vocab
    max_len = 2
    wide = vocab.size**max_len + 1
    got = beam_decode(graph, store, x, beam=wide, max_len=max_len, len_norm=0.6)
    expect = _exhaustive_best(graph, store, x, vocab, max_len, 0.6)
    assert got.tokens == expect.tokens
    assert got.score == pytest.approx(expect.score, abs=1e-9)


def test_decode_directions_and_errors():
    ds, graph, store = tiny_setup(seed=4, topology="one2many")
    x = ds.examples[0].x.frames
    st = beam_decode(graph, store, x, 1, max_len=5, direction="st")
    asr = beam_decode(graph, store, x, 1, max_len=5, direction="asr")
    assert st.tokens and asr.tokens
    with pytest.raises(NumericsError):
        beam_decode(graph, store, x, 1, max_len=5, direction="mt")
    ds2, mt_graph, mt_store = tiny_setup(seed=4, topology="mt")
    hyp = beam_decode(mt_graph, mt_store, ds2.examples[0].f.ids, 1, max_len=5, direction="mt")
    assert hyp.tokens


def test_tied_decode_runs():
    for topo in ("tied_cascade", "tied_triangle"):
        ds, graph, store = tiny_setup(seed=5, topology=topo)
        hyp = beam_decode(graph, store, ds.examples[0].x.frames, beam=3, max_len=5)
        assert hyp.tokens


def test_cascade_pipeline():
    ds, asr_graph, asr_store = tiny_setup(seed=6, topology="asr")
    _, mt_graph, mt_store = tiny_setup(seed=6, topology="mt")
    res = cascade(asr_graph, asr_store, mt_graph, mt_store, ds.examples[0].x.frames, beam=3, max_len=6)
    assert res.transcript.tokens
    # determinism: same inputs, same result
    res2 = cascade(asr_graph, asr_store, mt_graph, mt_store, ds.examples[0].x.frames, beam=3, max_len=6)
    assert res.translation.tokens == res2.translation.tokens
    assert res.translation.score == res2.translation.score


def test_cascade_batch_equals_cascade_per_utterance():
    ds, asr_graph, asr_store = tiny_setup(seed=0, topology="asr")
    _, mt_graph, mt_store = tiny_setup(seed=6, topology="mt")
    # As in _early_and_late_eos_model: some transcripts come out empty.
    eos, cfg = ds.src_vocab.eos_id, asr_graph.config
    w = asr_store["decoder_asr.out.w"].data.copy()
    w[cfg.emb_size + cfg.dec_hidden :, eos] *= 100.0
    asr_store.set("decoder_asr.out.w", w)
    batch = data.batch(ds, len(ds))[0][0]
    together = cascade_batch(asr_graph, asr_store, mt_graph, mt_store, batch, beam=3, max_len=5)
    alone = [cascade(asr_graph, asr_store, mt_graph, mt_store, ex.x.frames, beam=3, max_len=5) for ex in ds.examples]
    flags = [r.translation.flag for r in together]
    assert "empty_transcript" in flags and None in flags
    assert flags == [r.translation.flag for r in alone]
    for a, b in zip(together, alone):
        assert (a.transcript.tokens, a.translation.tokens) == (b.transcript.tokens, b.translation.tokens)
        assert a.translation.score == pytest.approx(b.translation.score, abs=1e-12)


def test_cascade_vocab_mismatch_rejected():
    ds, asr_graph, asr_store = tiny_setup(seed=7, topology="asr")
    ds8, mt_graph, mt_store = tiny_setup(seed=7, topology="mt", vocab=6)
    with pytest.raises(NumericsError):
        cascade(asr_graph, asr_store, mt_graph, mt_store, ds.examples[0].x.frames)


def test_cascade_empty_transcript_flagged():
    ds, asr_graph, asr_store = tiny_setup(seed=8, topology="asr")
    _, mt_graph, mt_store = tiny_setup(seed=8, topology="mt")
    # force the ASR decoder to emit EOS immediately: zero params make the
    # output uniform, ties break to id 0... instead bias output layer to EOS.
    bias = np.zeros(asr_graph.shapes["decoder_asr.out.b"])
    bias[ds.src_vocab.eos_id] = 50.0
    asr_store.set("decoder_asr.out.b", bias)
    res = cascade(asr_graph, asr_store, mt_graph, mt_store, ds.examples[0].x.frames, beam=2, max_len=5)
    assert res.transcript.tokens == [ds.src_vocab.eos_id]
    assert res.translation.tokens == []
    assert res.translation.flag == "empty_transcript"


def test_hypothesis_content_strips_reserved():
    v = data.Vocabulary.make("t", 4)
    hyp = Hypothesis(tokens=[1, 3, v.eos_id], score=-1.0, finished=True)
    assert hyp.content(v) == [1, 3]
