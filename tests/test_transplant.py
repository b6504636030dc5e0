import numpy as np
import pytest

from deskst import data, models, transplant
from deskst.models import ModelConfig, build, init_store, with_adapter
from deskst.tensor import NumericsError
from deskst.transplant import (
    Checkpoint,
    CorruptCheckpointError,
    TransplantError,
    VersionMismatchError,
    apply_transplant,
    load,
    resolve_scheme,
    save,
)


def setup_model(topology="direct", seed=0, vocab=5, ctc=False, **cfg_over):
    ds = data.generate(seed=seed, n_examples=4, vocab_size=vocab, len_range=(2, 3), frames_per_token_range=(5, 6))
    kw = dict(emb_size=5, enc_hidden=4, enc_layers=2, dec_hidden=6, attn_dim=4, pool_schedule=(2, 1), ctc_enabled=ctc)
    kw.update(cfg_over)
    cfg = ModelConfig.desk(ds.src_vocab, ds.tgt_vocab, **kw)
    graph = build(cfg, topology)
    return ds, graph, init_store(graph, seed)


def checkpoint_of(graph, store) -> Checkpoint:
    return Checkpoint(graph=graph, values=store.state_dict(), dev_history=[], seed=store.rng_seed)


# ---------------------------------------------------------------------------
# checkpoint persistence
# ---------------------------------------------------------------------------


def test_save_load_save_identical_bytes(tmp_path):
    _, graph, store = setup_model()
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save(graph, store, p1, dev_history=[{"epoch": 0, "bleu": 1.0}])
    ckpt = load(p1)
    store2 = ckpt.to_store()
    save(ckpt.graph, store2, p2, dev_history=ckpt.dev_history)
    assert p1.read_bytes() == p2.read_bytes()
    for name in store.names():
        assert np.array_equal(store[name].data, store2[name].data)


def test_load_rejects_bad_magic_and_version(tmp_path):
    _, graph, store = setup_model()
    path = tmp_path / "x.ckpt"
    save(graph, store, path)
    blob = path.read_bytes()
    (tmp_path / "junk.ckpt").write_bytes(b"NOTACKPT" + blob[8:])
    with pytest.raises(CorruptCheckpointError):
        load(tmp_path / "junk.ckpt")
    # bump the version field inside the header
    text = blob[len(b"DESKST-CKPT\n") + 8 :]
    tampered = blob.replace(b'"version":1', b'"version":9', 1)
    (tmp_path / "v9.ckpt").write_bytes(tampered)
    with pytest.raises(VersionMismatchError):
        load(tmp_path / "v9.ckpt")


def test_load_rejects_tampered_shape(tmp_path):
    _, graph, store = setup_model()
    path = tmp_path / "x.ckpt"
    save(graph, store, path)
    blob = path.read_bytes()
    # grow one declared shape; payload length no longer matches
    needle = b'"shape":[5,'
    assert needle in blob
    tampered = blob.replace(needle, b'"shape":[6,', 1)
    (tmp_path / "bad.ckpt").write_bytes(tampered)
    with pytest.raises(CorruptCheckpointError):
        load(tmp_path / "bad.ckpt")


def test_truncated_payload_rejected(tmp_path):
    _, graph, store = setup_model()
    path = tmp_path / "x.ckpt"
    save(graph, store, path)
    blob = path.read_bytes()
    (tmp_path / "short.ckpt").write_bytes(blob[:-16])
    with pytest.raises(CorruptCheckpointError):
        load(tmp_path / "short.ckpt")


def test_non_finite_payload_rejected_naming_the_parameter(tmp_path):
    _, graph, store = setup_model()
    path = tmp_path / "x.ckpt"
    save(graph, store, path)
    (tmp_path / "nan.ckpt").write_bytes(path.read_bytes()[:-8] + np.array([np.nan], dtype="<f8").tobytes())
    last = sorted(store.names())[-1]
    with pytest.raises(CorruptCheckpointError, match=f"parameter {last} holds a non-finite value"):
        load(tmp_path / "nan.ckpt")


# ---------------------------------------------------------------------------
# schemes and grafts
# ---------------------------------------------------------------------------


def test_asr_encoder_graft_into_direct():
    _, asr_graph, asr_store = setup_model("asr", seed=1)
    _, st_graph, st_store = setup_model("direct", seed=2)
    fresh = st_store.state_dict()
    scheme = resolve_scheme("asr_enc", "direct", asr_checkpoint=checkpoint_of(asr_graph, asr_store))
    report = apply_transplant(st_graph, st_store, scheme)
    for name in st_store.names():
        if name.startswith("encoder."):
            assert np.array_equal(st_store[name].data, asr_store[name].data), name
            assert name in report.grafted
        else:
            assert np.array_equal(st_store[name].data, fresh[name]), name
    assert all(n.startswith("decoder_st.") for n in report.fresh)


def test_empty_scheme_is_all_fresh():
    _, graph, store = setup_model(seed=3)
    before = store.state_dict()
    scheme = resolve_scheme("none", "direct")
    report = apply_transplant(graph, store, scheme)
    assert report.grafted == []
    for name, value in before.items():
        assert np.array_equal(store[name].data, value)


def test_two_donor_graft_asr_enc_plus_mt_dec():
    _, asr_graph, asr_store = setup_model("asr", seed=4)
    _, mt_graph, mt_store = setup_model("mt", seed=5)
    _, st_graph, st_store = setup_model("direct", seed=6)
    scheme = resolve_scheme(
        "asr_enc+mt_dec",
        "direct",
        asr_checkpoint=checkpoint_of(asr_graph, asr_store),
        mt_checkpoint=checkpoint_of(mt_graph, mt_store),
    )
    apply_transplant(st_graph, st_store, scheme)
    for name in st_store.names():
        if name.startswith("encoder."):
            assert np.array_equal(st_store[name].data, asr_store[name].data)
        if name.startswith("decoder_st."):
            assert np.array_equal(st_store[name].data, mt_store[name].data)


def test_asr_dec_lands_on_st_decoder_for_direct():
    _, asr_graph, asr_store = setup_model("asr", seed=7)
    _, st_graph, st_store = setup_model("direct", seed=8)
    scheme = resolve_scheme("asr_enc+asr_dec", "direct", asr_checkpoint=checkpoint_of(asr_graph, asr_store))
    report = apply_transplant(st_graph, st_store, scheme)
    # src and tgt vocabularies have equal sizes here, so everything grafts
    for name in st_store.names():
        if name.startswith("decoder_st."):
            donor = "decoder_asr." + name[len("decoder_st.") :]
            assert np.array_equal(st_store[name].data, asr_store[donor].data), name


def test_cross_vocab_decoder_graft_reinitializes_embedding_and_output():
    _, asr_graph, asr_store = setup_model("asr", seed=9, vocab=7)  # source vocab 11 total
    ds, st_graph, st_store = setup_model("direct", seed=10, vocab=7)
    # shrink the ST target vocabulary so embedding/output shapes differ
    small_tgt = data.Vocabulary.make("t", 5)
    cfg = ModelConfig.desk(
        ds.src_vocab, small_tgt, emb_size=5, enc_hidden=4, enc_layers=2, dec_hidden=6, attn_dim=4, pool_schedule=(2, 1)
    )
    st_graph = build(cfg, "direct")
    st_store = init_store(st_graph, 10)
    fresh = st_store.state_dict()
    scheme = resolve_scheme("asr_enc+asr_dec", "direct", asr_checkpoint=checkpoint_of(asr_graph, asr_store))
    report = apply_transplant(st_graph, st_store, scheme)
    flex = {"decoder_st.emb", "decoder_st.out.w", "decoder_st.out.b"}
    assert set(report.reinitialized) == flex
    for name in flex:
        assert np.array_equal(st_store[name].data, fresh[name])
    # the rest of the decoder was grafted
    assert np.array_equal(
        st_store["decoder_st.lstm.l0.w_ih"].data, asr_store["decoder_asr.lstm.l0.w_ih"].data
    )


def test_shape_mismatch_rejects_scheme_atomically():
    _, asr_graph, asr_store = setup_model("asr", seed=11, enc_hidden=4)
    _, st_graph, st_store = setup_model("direct", seed=12, enc_hidden=5)  # incompatible widths
    before = st_store.state_dict()
    scheme = resolve_scheme("asr_enc", "direct", asr_checkpoint=checkpoint_of(asr_graph, asr_store))
    with pytest.raises(TransplantError):
        apply_transplant(st_graph, st_store, scheme)
    for name, value in before.items():
        assert np.array_equal(st_store[name].data, value), name


def test_mt_dec_graft_into_tied_models_rejected_by_shape():
    # the tied second decoder attends decoder states (and concatenates two
    # contexts in the triangle), so an MT decoder cannot land there wholesale
    _, mt_graph, mt_store = setup_model("mt", seed=13)
    for topo in ("tied_cascade", "tied_triangle"):
        _, tied_graph, tied_store = setup_model(topo, seed=14)
        before = tied_store.state_dict()
        scheme = resolve_scheme("mt_dec", topo, mt_checkpoint=checkpoint_of(mt_graph, mt_store))
        with pytest.raises(TransplantError):
            apply_transplant(tied_graph, tied_store, scheme)
        for name, value in before.items():
            assert np.array_equal(tied_store[name].data, value)


def test_scheme_validation_errors():
    with pytest.raises(TransplantError):
        resolve_scheme("bogus", "direct")
    with pytest.raises(TransplantError):
        resolve_scheme("asr_enc", "direct")  # no donor checkpoint
    _, asr_graph, asr_store = setup_model("asr", seed=15)
    ck = checkpoint_of(asr_graph, asr_store)
    with pytest.raises(TransplantError):
        # asr_dec and mt_dec both target decoder_st. on the direct model
        transplant.TransplantScheme(
            grafts=[
                transplant.Graft(ck, "decoder_asr.", "decoder_st."),
                transplant.Graft(ck, "decoder_asr.", "decoder_st."),
            ]
        )
    _, mt_graph, mt_store = setup_model("mt", seed=16)
    scheme = resolve_scheme("asr_enc", "mt", asr_checkpoint=ck)
    with pytest.raises(TransplantError):
        apply_transplant(mt_graph, mt_store, scheme)  # mt has no encoder. prefix


# ---------------------------------------------------------------------------
# adapter
# ---------------------------------------------------------------------------


def test_adapter_adds_exactly_one_blstm_layer():
    _, graph, _ = setup_model("direct", seed=17)
    with_a = with_adapter(graph, "encoder_top")
    added = set(with_a.shapes) - set(graph.shapes)
    assert added == {
        "adapter.l0.fwd.w_ih",
        "adapter.l0.fwd.w_hh",
        "adapter.l0.fwd.b",
        "adapter.l0.bwd.w_ih",
        "adapter.l0.bwd.w_hh",
        "adapter.l0.bwd.b",
    }
    assert all(graph.shapes[n] == with_a.shapes[n] for n in graph.shapes)
    # width preserved: in = out = 2 * enc_hidden
    width = 2 * graph.config.enc_hidden
    assert with_a.shapes["adapter.l0.fwd.w_ih"] == (width, 4 * (width // 2))


def test_adapter_position_validation():
    _, direct_graph, _ = setup_model("direct", seed=18)
    with pytest.raises(NumericsError):
        with_adapter(direct_graph, "asr_decoder_top")
    _, tied_graph, _ = setup_model("tied_cascade", seed=18)
    with pytest.raises(NumericsError):
        with_adapter(tied_graph, "encoder_top")
    adapted = with_adapter(tied_graph, "asr_decoder_top")
    assert adapted.shapes["adapter.l0.fwd.w_ih"][0] == tied_graph.config.dec_hidden
    with pytest.raises(NumericsError):
        with_adapter(adapted, "asr_decoder_top")  # only one adapter
    _, asr_graph, _ = setup_model("asr", seed=18)
    with pytest.raises(NumericsError):
        with_adapter(asr_graph, "encoder_top")


def test_adapter_never_grafted():
    _, asr_graph, asr_store = setup_model("asr", seed=19)
    _, st_graph, _ = setup_model("direct", seed=20)
    st_graph = with_adapter(st_graph, "encoder_top")
    st_store = init_store(st_graph, 20)
    fresh_adapter = {n: st_store[n].data.copy() for n in st_store.names() if n.startswith("adapter.")}
    scheme = resolve_scheme("asr_enc", "direct", asr_checkpoint=checkpoint_of(asr_graph, asr_store))
    apply_transplant(st_graph, st_store, scheme)
    for name, value in fresh_adapter.items():
        assert np.array_equal(st_store[name].data, value)
    with pytest.raises(TransplantError):
        apply_transplant(
            st_graph,
            st_store,
            transplant.TransplantScheme(grafts=[transplant.Graft(checkpoint_of(asr_graph, asr_store), "encoder.", "adapter.")]),
        )


def test_adapter_changes_attention_inputs():
    ds, graph, _ = setup_model("direct", seed=21)
    adapted = with_adapter(graph, "encoder_top")
    store = init_store(adapted, 21)
    batches, _ = data.batch(ds, 2)
    from deskst.models import forward

    parts = forward(adapted, store, batches[0])
    from deskst.numerics import backward

    grads = backward(parts.combined, store)
    assert any(np.any(grads[n]) for n in store.names() if n.startswith("adapter."))


def test_adapter_on_top_of_asr_decoder_feeds_second_decoder():
    ds, graph, _ = setup_model("tied_triangle", seed=22)
    adapted = with_adapter(graph, "asr_decoder_top")
    store = init_store(adapted, 22)
    batches, _ = data.batch(ds, 2)
    from deskst.models import forward
    from deskst.numerics import backward

    parts = forward(adapted, store, batches[0])
    grads = backward(parts.combined, store)
    # gradients reach the adapter only through the second decoder's
    # decoder-side attention
    assert any(np.any(grads[n]) for n in store.names() if n.startswith("adapter."))
