import dataclasses
import functools
import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deskst import data, layers, models, tensor as tz
from deskst.data import Vocabulary
from deskst.layers import EncoderStates, label_smoothed_ce
from deskst.models import LossBreakdown, ModelConfig, build, forward, init_store
from deskst.numerics import OptimizerState, adam_step, backward, rng_for
from deskst.tensor import NumericsError

from util import check_grads, store_with


def tiny_dataset(seed=0, n=6, vocab=5):
    # frames_per_token >= 5 keeps 2J+1 <= ceil(T/2), so CTC stays feasible
    return data.generate(
        seed=seed, n_examples=n, vocab_size=vocab, len_range=(2, 3), frames_per_token_range=(5, 6), noise_sigma=0.2
    )


def tiny_config(ds, **over):
    kw = dict(emb_size=6, enc_hidden=5, enc_layers=2, dec_hidden=6, attn_dim=5, pool_schedule=(2, 1), dropout=0.0)
    kw.update(over)
    return ModelConfig.desk(ds.src_vocab, ds.tgt_vocab, **kw)


def first_batch(ds, size=3, ctc=False, pool=2):
    batches, _ = data.batch(ds, size, pool_product=pool, ctc_filter=ctc)
    return batches[0]


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def test_build_prefixes_per_topology():
    ds = tiny_dataset()
    cfg = tiny_config(ds, ctc_enabled=True)
    cases = {
        "direct": {"encoder.", "decoder_st.", "ctc_head."},
        "asr": {"encoder.", "decoder_asr.", "ctc_head."},
        "one2many": {"encoder.", "decoder_st.", "decoder_asr.", "ctc_head."},
        "many2one": {"encoder.", "text_encoder.", "decoder_st.", "ctc_head."},
        "tied_cascade": {"encoder.", "decoder_asr.", "decoder_st.", "ctc_head."},
        "tied_triangle": {"encoder.", "decoder_asr.", "decoder_st.", "ctc_head."},
    }
    for topo, expected in cases.items():
        graph = build(cfg, topo)
        prefixes = graph.component_prefixes()
        assert set(prefixes) == expected, topo
        for names in prefixes.values():
            assert names  # non-empty parameter sets
    no_ctc = tiny_config(ds)
    assert set(build(no_ctc, "direct").component_prefixes()) == {"encoder.", "decoder_st."}
    assert set(build(no_ctc, "mt").component_prefixes()) == {"text_encoder.", "decoder_st."}


def test_build_rejects_unknown_topology_and_mt_ctc():
    ds = tiny_dataset()
    with pytest.raises(NumericsError):
        build(tiny_config(ds), "transformer")
    with pytest.raises(NumericsError):
        build(tiny_config(ds, ctc_enabled=True), "mt")


def test_prefix_parameter_sets_are_disjoint():
    ds = tiny_dataset()
    graph = build(tiny_config(ds, ctc_enabled=True), "tied_triangle")
    seen = {}
    for prefix, names in graph.component_prefixes().items():
        for n in names:
            assert n not in seen, f"{n} owned by {prefix} and {seen[n]}"
            seen[n] = prefix


def manifest_digest(graph):
    """sha256 of the sorted (name, shape) list and the sorted zero-init set."""
    return hashlib.sha256(repr((sorted(graph.shapes.items()), sorted(graph.zero_init))).encode()).hexdigest()


# Recorded from the hand-wired builder that preceded models.WIRING, for
# tiny_config: checkpoint format v1 and transplant depend on these exact names,
# shapes and zero-init sets. Keys are (topology, ctc, adapter position).
MANIFEST_DIGESTS = {
    ("direct", False, None): "90fd2e115d728d009ecd39c0daccc84ecf40f392904047cb3366d7c07783a0f7",
    ("direct", False, "encoder_top"): "6544b330f446c0ef81712000853635ccdde150ea24e5d1df1cd2a9b5d9b4dcb6",
    ("direct", True, None): "236a94eabe26a6127e39446b4537f585d99ae275f086221ab269b567e66c1c99",
    ("direct", True, "encoder_top"): "25dd0fc52b14e05edd888dcdd27397d40190c86f9901e2af2a38751bd2707d56",
    ("asr", False, None): "7481e6d6dc4df02575ed39a12cfea3043a697f8d98697b20d4ea4120811dd06b",
    ("asr", True, None): "10bbb20d48278de26daed8e4f17aded2bb3b1c6a2be6bcb4bc38a6ecfad575de",
    ("mt", False, None): "cf2c0d42b112b84bbaf2c7e3f4f4417690664cfb4cd42b27ceb7925ebd7d01fc",
    ("one2many", False, None): "9e77cfc70c25d16e7f07f9d5d42447e827f3d43843dd8650e1a3cdb0a100ad00",
    ("one2many", False, "encoder_top"): "214d6281224f8b962272738a40c8f1ad887668b596b481a9b141b793f5be013f",
    ("one2many", True, None): "d525835567aa69148bc1e56c62b969afa5d1b4ee13c6ff7417519f446d11fe9e",
    ("one2many", True, "encoder_top"): "cb78a69603fd12bc39590fce0911636eeb15cd45d856e52f7983499e56858ca1",
    ("many2one", False, None): "8d7f5ce117fef4b5ef1a89371081d92b875c664054f74b977e96324e81f0e255",
    ("many2one", False, "encoder_top"): "0268fc732977c1c41cde98e344d24d2bb65158de7d08cd88dcb3144c7aa13aca",
    ("many2one", True, None): "e1f1b5e63b372438070982509ba0288b548730b03be161725c497b082ac6deb1",
    ("many2one", True, "encoder_top"): "29f527b308a3fde41b94400aa4de9fc765f64191f973bd9aff61930534af9abe",
    ("tied_cascade", False, None): "7401781f4caf23c92c76088d164559d9f8b4a674c1cf26eebaa501aef2e6dd04",
    ("tied_cascade", False, "asr_decoder_top"): "8c32aef9ebffed96f19a6cdea0ccd2c248335c3d4722c78d685a6a867c66a4a9",
    ("tied_cascade", True, None): "ccdf532536e22ff07d7350e782d1712d35bfeaf11bcd1ee5810a7155a1eba867",
    ("tied_cascade", True, "asr_decoder_top"): "059d6320314d4083871dbec27c45809239dc8114b36087872fb36da3fec07c45",
    ("tied_triangle", False, None): "4b2150cd9bec765fd8420f895a68241bece3b14533c5c41627935d40575050c6",
    ("tied_triangle", False, "asr_decoder_top"): "849fb451e2a3003ad0ebadb5a236823b62c7e96be8b53c1fc7574edb00b78667",
    ("tied_triangle", True, None): "6c874584fab9e39f84ae00668a8dc279a4b1316ba460792aa3a03e9c84f12744",
    ("tied_triangle", True, "asr_decoder_top"): "f96f54e24cfc97597a9055d3d67018c6584db4a9c08bf977d63ddec6ff8a044b",
}
GROWN_MANIFEST_DIGEST = "04407547e915b5fed252c932c9d54a89a3bd8958eea7febb8b5c190b87f6c4e3"


def test_manifests_match_recorded_digests():
    ds = tiny_dataset()
    for topology in models.TOPOLOGIES:
        for ctc in (False, True):
            for adapter in (False, True):
                position = models.WIRING[topology].adapter
                key = (topology, ctc, position if adapter else None)
                if (adapter and position is None) or key not in MANIFEST_DIGESTS:  # not a legal combination
                    with pytest.raises(NumericsError):
                        build(tiny_config(ds, ctc_enabled=ctc), topology, adapter=adapter)
                    continue
                graph = build(tiny_config(ds, ctc_enabled=ctc), topology, adapter=adapter)
                assert graph.adapter_position == key[2]
                assert manifest_digest(graph) == MANIFEST_DIGESTS[key], key
    cfg = tiny_config(ds, ctc_enabled=True, enc_layers=3, pool_schedule=(2, 1, 1))
    graph = build(cfg, "many2one", active_enc_layers=1, adapter=True)
    grown = models.grow_encoder(graph, init_store(graph, 0), 2)
    assert manifest_digest(grown) == GROWN_MANIFEST_DIGEST


def test_config_validation():
    ds = tiny_dataset()
    with pytest.raises(NumericsError):
        tiny_config(ds, loss_weight=1.5)
    with pytest.raises(NumericsError):
        tiny_config(ds, pool_schedule=(2,))  # wrong length for 2 layers
    with pytest.raises(NumericsError):
        tiny_config(ds, pool_schedule=(0, 1))


# ---------------------------------------------------------------------------
# loss semantics
# ---------------------------------------------------------------------------


def test_zero_parameter_direct_gives_uniform_loss():
    ds = tiny_dataset()
    cfg = tiny_config(ds)
    graph = build(cfg, "direct")
    store = init_store(graph, 0)
    for name in store.names():
        store.set(name, np.zeros(graph.shapes[name]))
    batch = first_batch(ds)
    parts = forward(graph, store, batch)
    steps = int((batch.tgt_lengths + 1).sum())
    assert parts.st_loss.item() == pytest.approx(steps * np.log(cfg.tgt_vocab_size), rel=1e-9)


def test_direct_combined_equals_parts():
    ds = tiny_dataset()
    graph = build(tiny_config(ds), "direct")
    store = init_store(graph, 1)
    batch = first_batch(ds)
    parts = forward(graph, store, batch)
    assert parts.combined.item() == parts.st_loss.item()
    assert parts.ctc_loss is None

    graph_ctc = build(tiny_config(ds, ctc_enabled=True), "direct")
    store_ctc = init_store(graph_ctc, 1)
    batch_ctc = first_batch(ds, ctc=True)
    parts_ctc = forward(graph_ctc, store_ctc, batch_ctc)
    assert abs(parts_ctc.combined.item() - (parts_ctc.st_loss.item() + parts_ctc.ctc_loss.item())) <= 1e-12


def test_one2many_loss_combination():
    ds = tiny_dataset()
    batch = first_batch(ds, ctc=True)
    for lam, ctc in [(0.5, False), (1.0, False), (0.3, False), (0.5, True)]:
        graph = build(tiny_config(ds, loss_weight=lam, ctc_enabled=ctc), "one2many")
        store = init_store(graph, 2)
        parts = forward(graph, store, batch)
        st, asr = parts.st_loss.item(), parts.asr_loss.item()
        if ctc:
            expected = lam * st + (1 - lam) * (asr + parts.ctc_loss.item())
        else:
            expected = lam * st + (1 - lam) * asr
        assert abs(parts.combined.item() - expected) <= 1e-12
        if lam == 0.5 and not ctc:
            assert abs(parts.combined.item() - (st + asr) / 2) <= 1e-12
        if lam == 1.0:
            assert parts.combined.item() == pytest.approx(st, abs=1e-15)


def test_many2one_speech_mode_matches_direct():
    ds = tiny_dataset()
    batch = first_batch(ds)
    cfg = tiny_config(ds, loss_weight=1.0)
    direct = build(cfg, "direct")
    m2o = build(cfg, "many2one")
    # Identical names initialize identically under the same seed, so the
    # shared encoder/decoder wiring must reproduce the direct loss.
    s_direct = init_store(direct, 3)
    s_m2o = init_store(m2o, 3)
    p_direct = forward(direct, s_direct, batch)
    p_m2o = forward(m2o, s_m2o, batch, mode="speech")
    assert abs(p_m2o.st_loss.item() - p_direct.st_loss.item()) <= 1e-12


def test_many2one_text_mode_matches_standalone_mt():
    ds = tiny_dataset()
    batch = first_batch(ds)
    cfg = tiny_config(ds)
    mt = build(cfg, "mt")
    m2o = build(cfg, "many2one")
    p_mt = forward(mt, init_store(mt, 4), batch)
    p_m2o = forward(m2o, init_store(m2o, 4), batch, mode="text")
    assert abs(p_m2o.mt_loss.item() - p_mt.mt_loss.item()) <= 1e-12
    with pytest.raises(NumericsError):
        forward(m2o, init_store(m2o, 4), batch, mode="audio")


def test_a_mode_without_a_route_is_rejected():
    ds = tiny_dataset()
    batch = first_batch(ds)
    for topology, mode in (("direct", "text"), ("mt", "speech"), ("many2one", "audio")):
        graph = build(tiny_config(ds), topology)
        with pytest.raises(NumericsError, match="has no"):
            forward(graph, init_store(graph, 4), batch, mode=mode)


def test_many2one_modes_share_decoder_gradients():
    ds = tiny_dataset()
    batch = first_batch(ds)
    graph = build(tiny_config(ds), "many2one")
    store = init_store(graph, 5)
    g_speech = backward(forward(graph, store, batch, mode="speech").combined, store)
    g_text = backward(forward(graph, store, batch, mode="text").combined, store)
    decoder_names = [n for n in store.names() if n.startswith("decoder_st.")]
    assert decoder_names
    for n in decoder_names:
        assert np.any(g_speech[n] != 0.0), n
        assert np.any(g_text[n] != 0.0), n
    # encoders are exclusive to their modes
    assert all(not np.any(g_text[n]) for n in store.names() if n.startswith("encoder."))
    assert all(not np.any(g_speech[n]) for n in store.names() if n.startswith("text_encoder."))


def test_tied_cascade_has_no_encoder_attention_for_second_decoder():
    ds = tiny_dataset()
    graph = build(tiny_config(ds), "tied_cascade")
    st_names = [n for n in graph.names() if n.startswith("decoder_st.")]
    assert not any(".attn." in n for n in st_names)
    assert any(".attn_dec." in n for n in st_names)
    tri = build(tiny_config(ds), "tied_triangle")
    tri_names = [n for n in tri.names() if n.startswith("decoder_st.")]
    assert any(".attn." in n for n in tri_names) and any(".attn_dec." in n for n in tri_names)


def test_tied_rollout_support_and_triangle_weights():
    ds = tiny_dataset()
    graph = build(tiny_config(ds), "tied_cascade")
    store = init_store(graph, 6)
    batch = first_batch(ds)
    enc = models.run_speech_encoder(graph, store, batch)
    src_vocab = ds.src_vocab
    limits = np.maximum(1, np.ceil(1.5 * batch.src_lengths).astype(np.int64))
    states, lengths, tokens = models.run_decoder_greedy_rollout(
        graph, store, "decoder_asr", [("attn", enc)], limits, src_vocab
    )
    # attention support for the second decoder == greedy output length
    # (steps up to and including EOS, truncated at the per-example limit)
    for b in range(batch.size):
        live = np.arange(tokens.shape[1]) < lengths[b]
        expect = int(limits[b])
        for k, tok in enumerate(tokens[b]):
            if live[k] and tok == src_vocab.eos_id:
                expect = k + 1
                break
        assert lengths[b] == min(expect, int(limits[b]))
    assert states.shape[1] == int(lengths.max())
    # triangle: both attention distributions are normalized every step
    tri = build(tiny_config(ds), "tied_triangle")
    tstore = init_store(tri, 6)
    enc_t = models.run_speech_encoder(tri, tstore, batch)
    states_t, lengths_t, _ = models.run_decoder_greedy_rollout(
        tri, tstore, "decoder_asr", [("attn", enc_t)], limits, src_vocab
    )
    dec_mem = EncoderStates(states_t, lengths_t)
    core = models._DecoderCore(tri, tstore, "decoder_st", [("attn", enc_t), ("attn_dec", dec_mem)], ds.tgt_vocab.size)
    layers_state, feedback = core.initial_state(batch.size)
    probs, ctx, feedback = core.step(np.full(batch.size, ds.tgt_vocab.bos_id), layers_state, feedback, False, None)
    for fb in feedback:  # after one step, feedback == the step's weights
        assert fb.data.sum(axis=-1) == pytest.approx(np.ones(batch.size), abs=1e-12)


def test_tied_loss_combination():
    ds = tiny_dataset()
    batch = first_batch(ds, ctc=True)
    for topo in ("tied_cascade", "tied_triangle"):
        graph = build(tiny_config(ds, loss_weight=0.5, ctc_enabled=True), topo)
        store = init_store(graph, 7)
        parts = forward(graph, store, batch)
        expected = 0.5 * parts.st_loss.item() + 0.5 * (parts.asr_loss.item() + parts.ctc_loss.item())
        assert abs(parts.combined.item() - expected) <= 1e-12


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def gradcheck_config(ds, **over):
    """The smallest dimensions that keep every path: an end-to-end gradcheck
    perturbs each parameter entry in turn."""
    kw = dict(emb_size=1, enc_hidden=1, enc_layers=1, dec_hidden=2, attn_dim=1, pool_schedule=(2,), dropout=0.0)
    kw.update(over)
    return ModelConfig.desk(ds.src_vocab, ds.tgt_vocab, **kw)


def test_direct_gradcheck_with_ctc():
    ds = tiny_dataset(vocab=4)
    graph = build(gradcheck_config(ds, ctc_enabled=True), "direct")
    store = init_store(graph, 8)
    batch = first_batch(ds, size=2, ctc=True)
    check_grads(lambda: forward(graph, store, batch).combined, store)


@pytest.mark.parametrize(
    "topology,mode,ctc,adapter",
    [
        ("one2many", None, True, False),
        ("many2one", "text", False, False),
        ("many2one", "speech", True, False),
        ("asr", None, True, False),
        ("mt", None, False, False),
        ("direct", None, True, True),
    ],
)
def test_end_to_end_gradcheck(topology, mode, ctc, adapter):
    # Both decoders of one2many through the fused backward, each of
    # many2one's modes into its shared decoder, the ASR head with CTC, the
    # text encoder alone, and the encoder_top adapter, which attention reads
    # while CTC reads the raw encoder; biases and u non-zero.
    ds = tiny_dataset(vocab=4)
    graph = build(gradcheck_config(ds, ctc_enabled=ctc), topology, adapter=adapter)
    store = init_store(graph, 8)
    rng = np.random.default_rng(2)
    for name in sorted(graph.zero_init):
        store.set(name, rng.normal(size=graph.shapes[name]) * 0.3)
    batch = first_batch(ds, size=2, ctc=ctc)
    check_grads(lambda: forward(graph, store, batch, mode=mode).combined, store)


class WithoutPrefix:
    """The entries of a store outside one component, for ``check_grads``,
    which reads a store only through ``items()``; the loss still reads the
    whole store."""

    def __init__(self, store, prefix):
        self.store, self.prefix = store, prefix

    def items(self):
        return [(name, t) for name, t in self.store.items() if not name.startswith(self.prefix)]


@pytest.mark.parametrize("topology,adapter", [("tied_cascade", None), ("tied_triangle", "asr_decoder_top")])
def test_tied_gradcheck_through_a_fixed_rollout(topology, adapter, monkeypatch):
    # The rollout's argmax is constant only while no perturbation flips it:
    # every evaluation must roll out the same tokens. decoder_st's own
    # parameters are left out (the teacher-forced tests check them, and each
    # entry costs two forward passes); everything its attn_dec memory comes
    # from is checked: the rollout, the encoder and any adapter.
    ds = tiny_dataset(vocab=4)
    graph = build(gradcheck_config(ds), topology, adapter=adapter is not None)
    store = init_store(graph, 8)
    rng = np.random.default_rng(1)
    for name in sorted(graph.zero_init):  # non-zero biases and feedback weights u
        store.set(name, rng.normal(size=graph.shapes[name]) * 0.3)
    batch = first_batch(ds, size=2)
    rollout, runs = models.run_decoder_greedy_rollout, []

    def recording_rollout(*args, **kwargs):
        runs.append(rollout(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(models, "run_decoder_greedy_rollout", recording_rollout)
    checked = WithoutPrefix(store, "decoder_st.")
    check_grads(lambda: forward(graph, store, batch).combined, checked)
    assert len(runs) > 2 * sum(v.data.size for _, v in checked.items())
    _, lengths, tokens = runs[0]
    assert all(np.array_equal(run[2], tokens) for run in runs)
    assert tokens.shape[1] > 1 and 0 < lengths.sum() < tokens.size  # a frozen step


def encoder_path_store(store, prefix, seed, **extra):
    """A store of one component's parameters, redrawn at random so biases
    are non-zero, plus ``extra`` arrays."""
    rng = np.random.default_rng(seed)
    arrays = {n: rng.normal(size=store[n].shape) * 0.5 for n in store.names() if n.startswith(prefix)}
    return store_with(**arrays, **extra)


def test_text_encoder_gradcheck():
    # many2one's text side: embedding and a two-layer BLSTM over a padded batch
    ds = tiny_dataset(vocab=4)
    graph = build(tiny_config(ds, emb_size=3, enc_hidden=2, pool_schedule=(1, 1)), "many2one")
    store = encoder_path_store(init_store(graph, 0), "text_encoder.", 1)
    ids = np.array([[3, 4, 5], [5, 3, ds.src_vocab.pad_id]])
    lengths = np.array([3, 2])
    proj = np.random.default_rng(2).normal(size=(2, 3, 4))
    check_grads(lambda: tz.tsum(models.run_text_encoder(graph, store, ids, lengths).states * proj), store)


def test_adapter_gradcheck():
    # encoder_top adapter: one BLSTM over padded encoder states, which get a gradient too
    ds = tiny_dataset(vocab=4)
    graph = build(tiny_config(ds, enc_hidden=2), "direct", adapter=True)
    rng = np.random.default_rng(3)
    store = encoder_path_store(init_store(graph, 0), "adapter.", 4, states=rng.normal(size=(2, 4, 4)))
    lengths = np.array([4, 2])
    proj = rng.normal(size=(2, 4, 4))

    def loss():
        enc = EncoderStates(store["states"], lengths)
        return tz.tsum(models.apply_adapter(graph, store, enc).states * proj)

    check_grads(loss, store)


def with_one_longest_row(batch, pool, pad_id):
    """``batch`` in which one row alone has the most frames and one alone
    the most tokens: the other rows are capped ``pool`` frames and one token
    below those maxima (the cut steps padded again), so that the encoders'
    last steps, pooled or not, run one row."""
    frames, src = batch.frames.copy(), batch.src.copy()
    frame_lengths, src_lengths = batch.frame_lengths.copy(), batch.src_lengths.copy()
    for stream, lengths, cut, fill in ((frames, frame_lengths, pool, 0.0), (src, src_lengths, 1, pad_id)):
        cap = lengths.max() - cut
        rows = np.flatnonzero(lengths > cap)[1:]
        lengths[rows] = cap
        stream[rows, cap:] = fill
    return dataclasses.replace(batch, frames=frames, frame_lengths=frame_lengths, src=src, src_lengths=src_lengths)


@pytest.mark.parametrize("topology,source", [("direct", "speech"), ("many2one", "text")])
def test_encode_under_no_grad_is_byte_identical_to_the_recorded_forward(topology, source):
    # A 32-row batch with ragged lengths and a unique longest row, at
    # H = 64; on speech the adapter sits at encoder_top, so the attention
    # memory passes through three BLSTMs.
    ds = data.generate(seed=5, n_examples=32, vocab_size=5, len_range=(1, 6), frames_per_token_range=(2, 6))
    graph = build(tiny_config(ds, emb_size=12, enc_hidden=64), topology, adapter=source == "speech")
    store = init_store(graph, 6)
    batch = with_one_longest_row(first_batch(ds, size=32), 2, ds.src_vocab.pad_id)
    for lengths in (batch.frame_lengths, layers.pooled_length(batch.frame_lengths, 2), batch.src_lengths):
        assert np.sort(lengths)[-1] > np.sort(lengths)[-2] > 0 and len(lengths) == 32
    recorded = models.encode(graph, store, batch, source)
    with tz.no_grad():
        plain = models.encode(graph, store, batch, source)
    for got, want in ((plain.enc, recorded.enc), (plain.attn, recorded.attn)):
        assert got.states.parents == () and want.states.parents
        assert got.states.data.tobytes() == want.states.data.tobytes()
        assert np.array_equal(got.lengths, want.lengths)


# ---------------------------------------------------------------------------
# graph release: numerics.backward differentiates a training graph once
# ---------------------------------------------------------------------------


def training_step_case(topology, ctc, adapter, size=4, **dims):
    ds = tiny_dataset(n=size)
    batch = first_batch(ds, size=size, ctc=ctc)
    graph = build(tiny_config(ds, ctc_enabled=ctc, dropout=0.2, **dims), topology, adapter=adapter)
    store = init_store(graph, 21)

    def parts():
        return forward(graph, store, batch, training=True, rngs=models.dropout_streams(5))

    return store, parts


@pytest.mark.parametrize("topology,ctc,adapter", [("one2many", True, False), ("tied_triangle", False, True)])
def test_backward_releases_the_graph_it_differentiates(topology, ctc, adapter):
    store, parts = training_step_case(topology, ctc, adapter)
    kept = tz.backward_graph(parts().combined)
    released = parts()
    grads = backward(released.combined, store)
    terms = [t for t in (released.combined, released.st_loss, released.asr_loss, released.ctc_loss) if t is not None]
    assert all(t.parents == () and t.backward is None for t in terms)
    with pytest.raises(NumericsError, match="no recorded forward graph"):
        backward(released.combined, store)
    assert all(grads[name].tobytes() == kept[id(param)].tobytes() for name, param in store.items())


def test_a_held_loss_breakdown_keeps_under_one_percent_of_its_forward_once_backward_returns():
    # Held, the step's LossBreakdown and its small objects cost under 8 KB
    # whatever the dims; at these a forward allocates about 1.9 MB.
    store, parts = training_step_case("tied_triangle", False, True, size=8, emb_size=32, enc_hidden=32,
                                      dec_hidden=32, attn_dim=32)
    backward(parts().combined, store)  # a first step allocates whatever is lazily set up once
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        held = parts()
        forward_bytes = tracemalloc.get_traced_memory()[0] - start
        backward(held.combined, store)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert kept < 0.01 * forward_bytes, (kept, forward_bytes)


# ---------------------------------------------------------------------------
# fused teacher-forced decoder against the step-by-step oracle
# ---------------------------------------------------------------------------


def stepwise_teacher_forced(graph, store, prefix, memories, targets, lengths, vocab, rngs=None, steps_run=None):
    """The teacher-forced loop one position at a time, built from the
    per-step layers: the oracle of ``layers.teacher_forced_decoder``.
    Returns (loss, hits), and appends the number of (step, row) pairs it
    ran to ``steps_run`` when given."""
    B, I = targets.shape
    core = models._DecoderCore(graph, store, prefix, memories, vocab.size)
    layers_state, feedback = core.initial_state(B)
    prev_ids = np.full(B, vocab.bos_id, dtype=np.int64)
    total, hits, steps = None, 0, 0
    for s in range(I + 1):
        step_mask = (s <= lengths).astype(np.float64)
        if step_mask.sum() == 0:
            break
        col = targets[:, s] if s < I else np.full(B, vocab.eos_id, dtype=np.int64)
        target_ids = np.where(s < lengths, col, vocab.eos_id).astype(np.int64)
        probs, ctx, feedback = core.step(prev_ids, layers_state, feedback, True, rngs)
        step_loss = label_smoothed_ce(probs, target_ids, graph.config.label_smoothing, step_mask)
        total = step_loss if total is None else total + step_loss
        hits += int(((probs.data.argmax(axis=-1) == target_ids) & (step_mask > 0)).sum())
        steps += int(step_mask.sum())
        layers_state = core.advance(target_ids, ctx, layers_state, step_mask)
        prev_ids = target_ids
    if steps_run is not None:
        steps_run.append(steps)
    return total, hits


def stepwise_greedy_rollout(graph, store, prefix, memories, limits, vocab, rngs=None):
    """The greedy rollout one position at a time, built from the per-step
    layers: the oracle of ``layers.greedy_rollout``."""
    B = limits.shape[0]
    core = models._DecoderCore(graph, store, prefix, memories, vocab.size)
    layers_state, feedback = core.initial_state(B)
    prev_ids = np.full(B, vocab.bos_id, dtype=np.int64)
    alive = np.ones(B, dtype=bool)
    states, state_masks, tokens = [], [], []
    k = 0
    while alive.any() and k < int(limits.max()):
        step_mask = (alive & (k < limits)).astype(np.float64)
        probs, ctx, feedback = core.step(prev_ids, layers_state, feedback, True, rngs)
        chosen = np.where(step_mask > 0, probs.data.argmax(axis=-1), vocab.pad_id)
        layers_state = core.advance(chosen, ctx, layers_state, step_mask)
        states.append(layers_state[-1][0])
        state_masks.append(step_mask)
        tokens.append(chosen)
        alive = alive & (chosen != vocab.eos_id) & (k + 1 < limits)
        prev_ids = chosen
        k += 1
    return (
        tz.stack(states, axis=1),
        np.stack(state_masks, axis=1).sum(axis=1).astype(np.int64),
        np.stack(tokens, axis=1),
    )


ORACLE_CASES = [
    ("direct", None),
    ("asr", None),
    ("mt", None),
    ("one2many", None),
    ("many2one", "speech"),
    ("many2one", "text"),
    ("tied_cascade", None),
    ("tied_triangle", None),
]


@pytest.mark.parametrize("topology,mode", ORACLE_CASES)
def test_fused_decoder_matches_stepwise_oracle(topology, mode, monkeypatch):
    ds = tiny_dataset(n=8)
    batch = first_batch(ds, size=4, ctc=True)
    assert len(set(batch.tgt_lengths)) > 1 and len(set(batch.src_lengths)) > 1  # padded targets
    rng = np.random.default_rng(17)
    for ctc in (False,) if topology == "mt" else (False, True):
        for adapter in (False, True) if models.WIRING[topology].adapter else (False,):
            for dec_layers in (1, 2):
                case = (ctc, adapter, dec_layers)
                graph = build(tiny_config(ds, ctc_enabled=ctc, dec_layers=dec_layers, dropout=0.2), topology,
                              adapter=adapter)
                store = init_store(graph, 21)
                for name in sorted(graph.zero_init):  # non-zero biases and feedback weights u
                    store.set(name, rng.normal(size=graph.shapes[name]) * 0.3)

                def run():
                    parts = forward(graph, store, batch, mode=mode, training=True, rngs=models.dropout_streams(5))
                    return parts, backward(parts.combined, store)

                fused, g_fused = run()
                steps_run = []
                with monkeypatch.context() as patch:
                    patch.setattr(models, "run_decoder_teacher_forced",
                                  functools.partial(stepwise_teacher_forced, steps_run=steps_run))
                    oracle, g_oracle = run()
                assert fused.floats() == oracle.floats(), case
                assert fused.token_hits == oracle.token_hits, case
                assert sorted(steps for _, steps in fused.token_hits.values()) == sorted(steps_run), case
                # Relative to the component's largest gradient entry: a bias
                # gradient can be a near-cancelling sum, orders below its terms.
                for prefix, names in graph.component_prefixes().items():
                    scale = max(np.abs(g_oracle[n]).max() for n in names)
                    for name in names:
                        err = np.abs(g_fused[name] - g_oracle[name]).max()
                        assert err <= 1e-12 * scale, (case, name, err, scale)


# The [EOS] bias of decoder_asr.out.b per decoder depth: rows then stop at
# different steps, some by [EOS] and one at its limit of 1, and with dropout
# every row stops before the largest limit.
ROLLOUT_EOS_BIAS = {1: 1.3, 2: 0.15}
ROLLOUT_LIMITS = np.array([12, 1, 9, 10])
ROLLOUT_MEMORY_LENGTHS = np.array([6, 4, 5, 3])


def rollout_setup(dec_layers, dropout, mem_lengths=ROLLOUT_MEMORY_LENGTHS, eos_bias=None, seed=17):
    """tied_triangle's decoder_asr with non-zero biases and its [EOS] bias,
    and a padded (B, T, 10) memory, row b valid at its first
    ``mem_lengths[b]`` steps, held in the store as ``memory``."""
    ds = tiny_dataset(n=8)
    graph = build(tiny_config(ds, dec_layers=dec_layers, dropout=dropout), "tied_triangle")
    store = init_store(graph, 21)
    rng = np.random.default_rng(seed)
    for name in sorted(graph.zero_init):
        store.set(name, rng.normal(size=graph.shapes[name]) * 0.3)
    vocab = models._task_vocab(graph, "asr")
    out_b = store["decoder_asr.out.b"].data.copy()
    out_b[vocab.eos_id] += ROLLOUT_EOS_BIAS[dec_layers] if eos_bias is None else eos_bias
    store.set("decoder_asr.out.b", out_b)
    memory = rng.normal(size=(len(mem_lengths), max(mem_lengths), 10))
    store.create("memory", memory.shape, "zeros")
    store.set("memory", memory)
    return graph, store, vocab


def rollout_and_grads(rollout, graph, store, vocab, rows, mem_lengths=ROLLOUT_MEMORY_LENGTHS, limits=ROLLOUT_LIMITS):
    """The training rollout over ``rows`` of the memory, the gradients of a
    random projection of all its states (padded steps included), and the
    next draw on decoder_asr's dropout stream."""
    rngs = models.dropout_streams(5)
    memory = EncoderStates(tz.take_slice(store["memory"], rows), mem_lengths[rows])
    run = rollout(graph, store, "decoder_asr", [("attn", memory)], limits[rows], vocab, rngs)
    states = run[0]
    upstream = np.random.default_rng(4).normal(size=states.shape)
    grads = backward(tz.tsum(states * upstream), store)
    return run, grads, rngs["decoder_asr"].random()


@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("dec_layers", [1, 2])
def test_fused_rollout_matches_stepwise_oracle(dec_layers, dropout):
    graph, store, vocab = rollout_setup(dec_layers, dropout)
    for rows in (slice(None), slice(0, 1)):  # B = 4, and B = 1
        fused, g_fused, next_fused = rollout_and_grads(models.run_decoder_greedy_rollout, graph, store, vocab, rows)
        oracle, g_oracle, next_oracle = rollout_and_grads(stepwise_greedy_rollout, graph, store, vocab, rows)
        (states, lengths, tokens), (o_states, o_lengths, o_tokens) = fused, oracle
        assert np.array_equal(tokens, o_tokens), rows
        assert np.array_equal(lengths, o_lengths), rows
        assert states.data.tobytes() == o_states.data.tobytes(), rows  # frozen padded steps included
        assert next_fused == next_oracle  # the dropout stream moved by the steps taken
        names = [n for n in store.names() if n.startswith("decoder_asr.")]
        for group in (names, ["memory"]):
            scale = max(np.abs(g_oracle[n]).max() for n in group)
            for name in group:
                err = np.abs(g_fused[name] - g_oracle[name]).max()
                assert err <= 1e-12 * scale, (rows, name, err, scale)
        assert not g_fused["decoder_asr.out.w"].any() and not g_fused["decoder_asr.out.b"].any()  # argmax is constant
        if rows == slice(None):
            assert len(set(lengths)) > 2 and lengths[1] == 1  # rows stop at different steps; limit 1 holds
            assert any(tokens[b, lengths[b] - 1] == vocab.eos_id for b in range(4))
            if dropout:
                assert states.shape[1] < ROLLOUT_LIMITS.max()  # a single S_max draw would move the stream


def test_fused_rollout_under_no_grad_is_parentless_with_same_values():
    graph, store, vocab = rollout_setup(2, 0.0)
    memory = [("attn", EncoderStates(store["memory"], ROLLOUT_MEMORY_LENGTHS))]
    states, lengths, tokens = models.run_decoder_greedy_rollout(graph, store, "decoder_asr", memory, ROLLOUT_LIMITS, vocab)
    assert states.parents
    with tz.no_grad():
        plain, plain_lengths, plain_tokens = models.run_decoder_greedy_rollout(
            graph, store, "decoder_asr", memory, ROLLOUT_LIMITS, vocab
        )
    assert plain.parents == () and plain.backward is None
    assert plain.data.tobytes() == states.data.tobytes()
    assert np.array_equal(plain_tokens, tokens) and np.array_equal(plain_lengths, lengths)


def tied_rollout_case(topology, adapter):
    """A tied model whose decoder_asr parameters and zero-initialized
    tensors are redrawn at unit scale, by name, so every topology and adapter
    setting rolls out the same, and a 5-row batch of 1 to 6 tokens, on which
    rows stop on [EOS] and at their limit."""
    ds = data.generate(seed=5, n_examples=8, vocab_size=5, len_range=(1, 6), frames_per_token_range=(2, 6))
    graph = build(tiny_config(ds), topology, adapter=adapter)
    store = init_store(graph, 6)
    for name in graph.names():
        if name in graph.zero_init or name.startswith("decoder_asr."):
            store.set(name, rng_for(7, name).normal(size=graph.shapes[name]))
    vocab = models._task_vocab(graph, "asr")
    out_b = store["decoder_asr.out.b"].data.copy()
    out_b[vocab.eos_id] += 0.1
    store.set("decoder_asr.out.b", out_b)
    return graph, store, vocab, first_batch(ds, size=5)


def memory_at_valid_positions(memory: EncoderStates) -> list[bytes]:
    return [memory.states.data[b, :n].tobytes() for b, n in enumerate(memory.lengths)]


@pytest.mark.parametrize("adapter", [False, True])
@pytest.mark.parametrize("topology", ["tied_cascade", "tied_triangle"])
@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(st.data())
def test_a_cut_rollout_is_the_rollout_run_at_the_cut(topology, adapter, draw):
    graph, store, vocab, batch = tied_rollout_case(topology, adapter)
    B = batch.size
    st_head = models.route_for(topology).heads[1]
    with tz.no_grad():
        encoding = models.encode(graph, store, batch, "speech")

        def run(limits):
            return models.run_decoder_greedy_rollout(graph, store, "decoder_asr", [("attn", encoding.attn)], limits, vocab)

        def attn_dec(memory):
            return models.apply_adapter(graph, store, memory) if adapter else memory

        own = np.maximum(models._rollout_limits(batch, encoding.enc, False), models._rollout_limits(batch, encoding.enc, True))
        limits = own + np.array(draw.draw(st.lists(st.integers(0, 4), min_size=B, max_size=B)))
        cut_to = np.array([draw.draw(st.integers(1, int(n))) for n in limits])
        rollout = models.Rollout(limits, *run(limits))
        got, (states, steps, tokens) = rollout.cut(cut_to), run(cut_to)
        assert np.array_equal(got.lengths, steps) and got.states.shape == states.shape
        valid = np.arange(tokens.shape[1]) < steps[:, None]
        assert np.array_equal(np.where(valid, rollout.tokens[:, : tokens.shape[1]], vocab.pad_id), tokens)
        run_at_cut = EncoderStates(states, steps)
        assert memory_at_valid_positions(got) == memory_at_valid_positions(run_at_cut)
        assert memory_at_valid_positions(attn_dec(got)) == memory_at_valid_positions(attn_dec(run_at_cut))
        # head_memories cuts the carried rollout to the loss's and the decode's limits.
        shared = dataclasses.replace(encoding, rollout=rollout)
        for decoding in (False, True):
            got, want = (
                dict(models.head_memories(graph, store, batch, st_head, e, decoding=decoding))["attn_dec"]
                for e in (shared, encoding)
            )
            assert np.array_equal(got.lengths, want.lengths)
            assert memory_at_valid_positions(got) == memory_at_valid_positions(want)
    with pytest.raises(models.EncodingMismatchError, match="cannot be cut"):
        rollout.cut(limits + 1)


def test_tied_rollout_case_rows_stop_both_ways():
    """The cut test's rows stop both on [EOS] and at their limit."""
    graph, store, vocab, batch = tied_rollout_case("tied_triangle", False)
    with tz.no_grad():
        encoding = models.encode(graph, store, batch, "speech")
        limits = models._rollout_limits(batch, encoding.enc, True)
        _, steps, tokens = models.run_decoder_greedy_rollout(
            graph, store, "decoder_asr", [("attn", encoding.attn)], limits, vocab
        )
    at_eos = tokens[np.arange(batch.size), steps - 1] == vocab.eos_id
    assert (at_eos & (steps < limits)).any() and (~at_eos & (steps == limits)).any()


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("name", ["decoder_asr.attn.w_keys", "decoder_asr.lstm.l0.w_hh", "memory"])
def test_a_non_finite_rollout_input_raises(name, bad, monkeypatch):
    graph, store, vocab = rollout_setup(1, 0.0)
    memory = [("attn", EncoderStates(store["memory"], ROLLOUT_MEMORY_LENGTHS))]
    store[name].data.flat[0] = bad
    with pytest.raises(tz.NonFiniteError):
        models.run_decoder_greedy_rollout(graph, store, "decoder_asr", memory, ROLLOUT_LIMITS, vocab)
    # Through the training loss, where the memory is the encoder's output.
    encoder = models.run_speech_encoder

    def poisoned_encoder(*args, **kwargs):
        enc = encoder(*args, **kwargs)
        enc.states.data.flat[0] = bad
        return enc

    if name == "memory":
        monkeypatch.setattr(models, "run_speech_encoder", poisoned_encoder)
    with pytest.raises(tz.NonFiniteError):
        forward(graph, store, first_batch(tiny_dataset(n=8)))


# ---------------------------------------------------------------------------
# packed rows: the fused decoders run each step over its live rows only
# ---------------------------------------------------------------------------


@st.composite
def ragged_rows(draw):
    """(memory lengths, target lengths, rollout limits, parameter seed,
    decoder depth, [EOS] bias) for B = 1..5 rows; half the cases have a
    unique longest row, so the last steps have one live row."""
    B = draw(st.integers(1, 5))
    rows = st.lists(st.integers(0, 4), min_size=B, max_size=B)
    mem_lengths = [1 + x for x in draw(rows)]
    lengths, limits = draw(rows), [1 + x for x in draw(rows)]
    if draw(st.booleans()):
        i = draw(st.integers(0, B - 1))
        lengths[i] = max(lengths) + draw(st.integers(1, 2))
        limits[i] = max(limits) + draw(st.integers(1, 2))
    return mem_lengths, lengths, np.array(limits), draw(st.integers(0, 999)), draw(st.sampled_from([1, 2])), draw(
        st.floats(0.0, 2.0)
    )


def packed_case(mem_lengths, dec_layers, seed, eos_bias, dropout=0.2):
    mem_lengths = np.array(mem_lengths)
    graph, store, vocab = rollout_setup(dec_layers, dropout, mem_lengths, eos_bias, seed)
    return graph, store, vocab, mem_lengths


def padded_targets(lengths, vocab, seed):
    targets = np.random.default_rng(seed).integers(0, vocab.content_size, size=(len(lengths), max(lengths)))
    return targets, np.array(lengths)


def assert_grads_close(got, want, names, tol=1e-12):
    """Within ``tol`` of the group's largest gradient entry."""
    scale = max(np.abs(want[n]).max() for n in names)
    for name in names:
        err = np.abs(got[name] - want[name]).max()
        assert err <= tol * scale, (name, err, scale)


def teacher_forced_run(run, graph, store, vocab, mem_lengths, targets, lengths, training=True, rows=slice(None)):
    """A decoder_asr teacher-forced run over ``rows`` of the memory: its
    (loss, hits) and its gradients."""
    memory = [("attn", EncoderStates(tz.take_slice(store["memory"], rows), mem_lengths[rows]))]
    loss, hits = run(graph, store, "decoder_asr", memory, targets[rows], lengths[rows], vocab,
                     models.dropout_streams(5) if training else None)
    return (loss, hits), backward(loss, store)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(ragged_rows())
def test_packed_decoders_match_stepwise_oracles(case):
    mem_lengths, lengths, limits, seed, dec_layers, eos_bias = case
    graph, store, vocab, mem_lengths = packed_case(mem_lengths, dec_layers, seed, eos_bias)
    names = [n for n in store.names() if n.startswith("decoder_asr.")]
    targets, lengths = padded_targets(lengths, vocab, seed)
    (loss, hits), g_fused = teacher_forced_run(models.run_decoder_teacher_forced, graph, store, vocab, mem_lengths,
                                               targets, lengths)
    steps_run = []
    oracle = functools.partial(stepwise_teacher_forced, steps_run=steps_run)
    (o_loss, o_hits), g_oracle = teacher_forced_run(oracle, graph, store, vocab, mem_lengths, targets, lengths)
    assert loss.item() == o_loss.item()
    assert (hits, int(lengths.sum()) + len(lengths)) == (o_hits, *steps_run)  # forward's step count
    assert_grads_close(g_fused, g_oracle, names)
    assert_grads_close(g_fused, g_oracle, ["memory"])

    fused, g_fused, next_fused = rollout_and_grads(models.run_decoder_greedy_rollout, graph, store, vocab,
                                                   slice(None), mem_lengths, limits)
    oracle, g_oracle, next_oracle = rollout_and_grads(stepwise_greedy_rollout, graph, store, vocab, slice(None),
                                                      mem_lengths, limits)
    (states, rows_ran, tokens), (o_states, o_rows_ran, o_tokens) = fused, oracle
    assert np.array_equal(tokens, o_tokens) and np.array_equal(rows_ran, o_rows_ran)
    assert states.data.tobytes() == o_states.data.tobytes()
    assert next_fused == next_oracle
    assert_grads_close(g_fused, g_oracle, names)
    assert_grads_close(g_fused, g_oracle, ["memory"])


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(ragged_rows(), st.randoms(use_true_random=False))
def test_permuting_rows_permutes_memory_gradients_and_nothing_else(case, random):
    mem_lengths, lengths, limits, seed, dec_layers, eos_bias = case
    graph, store, vocab, mem_lengths = packed_case(mem_lengths, dec_layers, seed, eos_bias, dropout=0.0)
    names = [n for n in store.names() if n.startswith("decoder_asr.")]
    perm = np.array(random.sample(range(len(lengths)), len(lengths)))
    targets, lengths = padded_targets(lengths, vocab, seed)
    (base, base_hits), g_base = teacher_forced_run(models.run_decoder_teacher_forced, graph, store, vocab, mem_lengths,
                                                   targets, lengths, False)
    (moved, moved_hits), g_moved = teacher_forced_run(models.run_decoder_teacher_forced, graph, store, vocab,
                                                      mem_lengths, targets, lengths, False, perm)
    assert moved.item() == pytest.approx(base.item(), rel=1e-14)  # per-row terms; the row sum reorders
    assert moved_hits == base_hits
    # The op's memory-state gradient follows its rows; take_slice scatters
    # it back to the store's rows, where it must not move by a bit.
    assert g_moved["memory"].tobytes() == g_base["memory"].tobytes()
    assert_grads_close(g_moved, g_base, names)

    upstream = None
    for rows in (np.arange(len(perm)), perm):
        memory = EncoderStates(tz.take_slice(store["memory"], rows), mem_lengths[rows])
        run = models.run_decoder_greedy_rollout(graph, store, "decoder_asr", [("attn", memory)], limits[rows], vocab)
        if upstream is None:
            upstream = np.random.default_rng(4).normal(size=run[0].shape)
            base, g_base = run, backward(tz.tsum(run[0] * upstream), store)
        else:
            moved, g_moved = run, backward(tz.tsum(run[0] * upstream[perm]), store)
    (states, lengths, tokens), (base_states, base_lengths, base_tokens) = moved, base
    assert np.array_equal(tokens, base_tokens[perm]) and np.array_equal(lengths, base_lengths[perm])
    assert states.data.tobytes() == base_states.data[perm].tobytes()
    assert g_moved["memory"].tobytes() == g_base["memory"].tobytes()
    assert_grads_close(g_moved, g_base, names)


def test_each_decoder_step_runs_its_live_rows_and_at_least_two(monkeypatch):
    """n_k is the number of rows still running at step k; a step computes
    max(n_k, 2) of them (all of them when B = 1): a one-row product would be
    a gemv, whose bits differ from the GEMM's."""
    counts = []
    predict = layers.DecoderKernel.predict

    def counted(self, prev_ids, *args, **kwargs):
        counts.append(len(prev_ids))
        return predict(self, prev_ids, *args, **kwargs)

    monkeypatch.setattr(layers.DecoderKernel, "predict", counted)
    graph, store, vocab, mem_lengths = packed_case([3, 5, 2, 4, 5], 1, 3, 0.5)
    memory = [("attn", EncoderStates(store["memory"], mem_lengths))]
    for lengths in ([2, 5, 1, 3, 2], [4]):  # a unique longest row; one row
        B = len(lengths)
        targets, target_lengths = padded_targets(lengths, vocab, 0)
        counts.clear()
        rows = [("attn", EncoderStates(tz.take_slice(store["memory"], slice(0, B)), mem_lengths[:B]))]
        models.run_decoder_teacher_forced(graph, store, "decoder_asr", rows, targets, target_lengths, vocab)
        live = [int((np.array(lengths) + 1 > k).sum()) for k in range(max(lengths) + 1)]
        assert counts == [max(n, min(2, B)) for n in live]
        assert live[-1] == 1 and counts[-1] == min(2, B)

    limits = np.array([3, 9, 2, 4, 6])
    counts.clear()
    _, ran, tokens = models.run_decoder_greedy_rollout(graph, store, "decoder_asr", memory, limits, vocab)
    order = np.argsort(-limits, kind="stable")
    running = np.arange(tokens.shape[1])[:, None] < ran[order]  # (K, B), rows longest limit first
    live = [len(limits) - int(r[::-1].argmax()) for r in running]
    assert counts == [max(n, 2) for n in live]
    assert min(live) < len(limits)  # some steps skip rows


def advance_masks(run):
    """``run()``'s DecoderKernel advances: per kernel, a (steps, B) array of
    each advance's mask, 0 on the rows beyond the advance's prefix."""
    masks, advance = {}, layers.DecoderKernel.advance

    def recorded(self, tokens, mask=None, rows=None):
        masks.setdefault(self, []).append(mask.copy())
        return advance(self, tokens, mask, rows)

    with mock.patch.object(layers.DecoderKernel, "advance", recorded):
        run()
    out = []
    for kernel, steps in masks.items():
        ran = np.zeros((len(steps), len(kernel.order)))
        for k, mask in enumerate(steps):
            ran[k, : len(mask)] = mask
        out.append(ran)
    return out


def fused_decoder_masks(mem_lengths, lengths, limits, seed, dec_layers, eos_bias):
    """The advance masks of a teacher-forced run and of a rollout, both
    with dropout, over ragged rows."""
    graph, store, vocab, mem_lengths = packed_case(mem_lengths, dec_layers, seed, eos_bias)
    memory = [("attn", EncoderStates(store["memory"], mem_lengths))]
    targets, lengths = padded_targets(lengths, vocab, seed)
    tf = advance_masks(lambda: models.run_decoder_teacher_forced(
        graph, store, "decoder_asr", memory, targets, lengths, vocab, models.dropout_streams(5)))
    roll = advance_masks(lambda: models.run_decoder_greedy_rollout(
        graph, store, "decoder_asr", memory, limits, vocab, models.dropout_streams(5)))
    return tf + roll


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(ragged_rows())
def test_a_fused_decoder_row_is_never_unmasked_once_masked(case):
    """DecoderKernel.backward relies on this: a stopped row's cell gradient
    stays 0, so its ``dc`` needs no mask and no pass-through term."""
    mem_lengths, lengths, limits, seed, dec_layers, eos_bias = case
    for ran in fused_decoder_masks(mem_lengths, lengths, limits, seed, dec_layers, eos_bias):
        assert not (np.diff(ran, axis=0) > 0).any()


def test_the_fused_decoders_run_masked_rows():
    """The property above is not vacuous: in both decoders a row stops while
    others run on."""
    kernels = fused_decoder_masks([3, 5, 2, 4, 5], [2, 5, 1, 3, 2], np.array([3, 9, 2, 4, 6]), 3, 2, 0.5)
    assert len(kernels) == 2
    for ran in kernels:
        assert ((ran[1:] == 0) & (ran[:-1] == 1)).any()  # a row stops
        assert not (np.diff(ran, axis=0) > 0).any()


# ---------------------------------------------------------------------------
# batching equivalence
# ---------------------------------------------------------------------------


def has_speech_route(topology):
    return any(route.source == "speech" for route in models.WIRING[topology].routes)


@pytest.mark.parametrize("topology,mode", ORACLE_CASES)
def test_padded_batch_loss_equals_sum_of_singles(topology, mode):
    ds = tiny_dataset(n=5)
    ctc = has_speech_route(topology)  # CTC wherever it can run
    graph = build(tiny_config(ds, ctc_enabled=ctc), topology)
    store = init_store(graph, 9)
    batches, _ = data.batch(ds, 5, pool_product=2, ctc_filter=ctc)
    combined = forward(graph, store, batches[0], mode=mode)
    grads = backward(combined.combined, store)
    singles, _ = data.batch(ds, 1, pool_product=2, ctc_filter=ctc)
    total = {k: 0.0 for k in combined.floats()}
    hits = {task: (0, 0) for task in combined.token_hits}
    grad_total = {name: np.zeros_like(g) for name, g in grads.items()}
    for b in singles:
        parts = forward(graph, store, b, mode=mode)
        for k in total:
            total[k] += parts.floats()[k]
        for task, (h, n) in parts.token_hits.items():
            hits[task] = (hits[task][0] + h, hits[task][1] + n)
        for name, g in backward(parts.combined, store).items():
            grad_total[name] += g
    for k in total:
        assert combined.floats()[k] == pytest.approx(total[k], abs=1e-9), k
    assert combined.token_hits == hits
    # The gradient half, within 1e-12 absolute: no interior gradient is
    # dropped before its last contribution arrives.
    assert any(np.any(g) for g in grads.values())
    for name, g in grads.items():
        assert np.abs(g - grad_total[name]).max() <= 1e-12, name


@pytest.mark.parametrize("topology,mode", ORACLE_CASES)
def test_doubling_pad_length_leaves_loss_unchanged(topology, mode):
    ds = tiny_dataset(n=3)
    ctc = has_speech_route(topology)
    graph = build(tiny_config(ds, ctc_enabled=ctc), topology)
    store = init_store(graph, 10)
    batches, _ = data.batch(ds, 3, pool_product=2, ctc_filter=ctc)
    b = batches[0]
    parts = forward(graph, store, b, mode=mode)
    B, T, F = b.frames.shape
    J, I = b.src.shape[1], b.tgt.shape[1]
    wide = data.Batch(
        ids=b.ids,
        frames=np.concatenate([b.frames, np.zeros((B, T, F))], axis=1),
        frame_lengths=b.frame_lengths,
        src=np.concatenate([b.src, np.full((B, J), ds.src_vocab.pad_id)], axis=1),
        src_lengths=b.src_lengths,
        tgt=np.concatenate([b.tgt, np.full((B, I), ds.tgt_vocab.pad_id)], axis=1),
        tgt_lengths=b.tgt_lengths,
    )
    parts_wide = forward(graph, store, wide, mode=mode)
    assert parts_wide.combined.item() == pytest.approx(parts.combined.item(), abs=1e-12)
    assert parts_wide.token_hits == parts.token_hits
    grads, grads_wide = backward(parts.combined, store), backward(parts_wide.combined, store)
    for name, g in grads.items():  # within 1e-12 absolute
        assert np.abs(grads_wide[name] - g).max() <= 1e-12, name


# ---------------------------------------------------------------------------
# growth
# ---------------------------------------------------------------------------


def test_grow_encoder_preserves_existing_layers():
    ds = tiny_dataset()
    cfg = tiny_config(ds, enc_layers=3, pool_schedule=(2, 1, 1))
    graph = build(cfg, "direct", active_enc_layers=2)
    store = init_store(graph, 11)
    old = {n: store[n].data.copy() for n in store.names()}
    assert graph.effective_pools() == (2, 1)
    grown = models.grow_encoder(graph, store, 3)
    assert grown.active_enc_layers == 3
    assert grown.effective_pools() == (2, 1, 1)
    for n, v in old.items():
        assert np.array_equal(store[n].data, v), n
    new_names = set(store.names()) - set(old)
    assert new_names and all(n.startswith("encoder.l2.") for n in new_names)
    with pytest.raises(NumericsError):
        models.grow_encoder(grown, store, 2)
    with pytest.raises(NumericsError):
        models.grow_encoder(grown, store, 4)
    # T' is invariant across growth: pooled lengths match the full stack's
    batch = first_batch(ds)
    enc_small = models.run_speech_encoder(graph, store, batch)
    enc_grown = models.run_speech_encoder(grown, store, batch)
    assert enc_small.states.shape[1] == enc_grown.states.shape[1]


# ---------------------------------------------------------------------------
# trajectory identity
# ---------------------------------------------------------------------------


def test_one2many_lambda1_trains_identically_to_direct():
    ds = tiny_dataset(n=6)
    batches, _ = data.batch(ds, 3)
    cfg = tiny_config(ds, loss_weight=1.0, dropout=0.1)
    seed = 13

    def train(topology):
        graph = build(cfg, topology)
        store = init_store(graph, seed)
        opt = OptimizerState(learning_rate=1e-3)
        rngs = models.dropout_streams(seed)
        for _ in range(2):
            for b in batches:
                parts = forward(graph, store, b, training=True, rngs=rngs)
                adam_step(store, backward(parts.combined, store), opt)
        return store

    s_direct = train("direct")
    s_multi = train("one2many")
    for name in s_direct.names():
        assert np.array_equal(s_direct[name].data, s_multi[name].data), name


@pytest.mark.parametrize("topology,mode,adapter", [("tied_triangle", None, True), ("direct", None, True),
                                                   ("many2one", "text", False)])
def test_dropout_runs_only_when_training_at_a_nonzero_rate(topology, mode, adapter):
    # Outside training, or at rate 0, forward with dropout streams is forward
    # without them, bit for bit, and moves none of the streams.
    ds = tiny_dataset(n=8)
    batch = first_batch(ds, size=4, ctc=True)

    def run(graph, store, **kwargs):
        parts = forward(graph, store, batch, mode=mode, **kwargs)
        return parts, backward(parts.combined, store)

    for training, rate in ((False, 0.2), (True, 0.0)):
        graph = build(tiny_config(ds, ctc_enabled=True, dropout=rate), topology, adapter=adapter)
        store = init_store(graph, 21)
        plain, g_plain = run(graph, store)
        rngs = models.dropout_streams(5)
        switched, g_switched = run(graph, store, training=training, rngs=rngs)
        assert switched.floats() == plain.floats() and switched.token_hits == plain.token_hits
        assert all(g_switched[n].tobytes() == g_plain[n].tobytes() for n in store.names())
        fresh = models.dropout_streams(5)
        assert all(rngs[c].random() == fresh[c].random() for c in fresh), (training, rate)
        if rate:  # the same streams in training do drop units
            dropped, _ = run(graph, store, training=True, rngs=models.dropout_streams(5))
            assert dropped.floats() != plain.floats()
