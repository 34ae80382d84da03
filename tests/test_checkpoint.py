"""Checkpoint/resume: a run continued from a checkpoint file must be
bit-identical to the uninterrupted run — same per-round traces, same
round/move counts, same ExperimentRecord — across algorithms, shapes,
seeds and both activation engines.

The preemption idiom used throughout: ``on_checkpoint`` raises ``Kill``
after the first save, simulating a SIGKILL at an arbitrary round; a
fresh context pointed at the same file then resumes.
"""

import json
import random

import pytest

from repro.amoebot.scheduler import (
    _UniformKeyStream,
    make_scheduler,
)
from repro.amoebot.system import ParticleSystem
from repro.core.dle import DLEAlgorithm
from repro.grid.generators import make_shape
from repro.io import records_to_dicts
from repro.session import Session
from repro.state import (
    CHECKPOINT_VERSION,
    CheckpointContext,
    CheckpointError,
    decode_rng,
    encode_rng,
    read_checkpoint,
    run_checkpointed_stage,
    write_checkpoint,
)


class Kill(Exception):
    """Simulated SIGKILL raised from the on_checkpoint callback."""


def _bomb(counter=None):
    """An on_checkpoint callback that raises Kill on its first firing."""

    def on_checkpoint(rounds, path):
        raise Kill(f"killed at round {rounds}")

    return on_checkpoint


# ---------------------------------------------------------------------------
# RNG stream round-trips
# ---------------------------------------------------------------------------

class TestRngRoundTrip:
    def test_stdlib_rng_roundtrips_bit_identically(self):
        rng = random.Random(1234)
        [rng.random() for _ in range(137)]  # advance mid-stream
        document = json.loads(json.dumps(encode_rng(rng)))
        clone = decode_rng(document)
        assert [clone.random() for _ in range(100)] == \
               [rng.random() for _ in range(100)]

    def test_stdlib_rng_roundtrips_gauss_carry(self):
        rng = random.Random(7)
        rng.gauss(0, 1)  # leaves a cached second variate in gauss_next
        clone = decode_rng(json.loads(json.dumps(encode_rng(rng))))
        assert [clone.gauss(0, 1) for _ in range(10)] == \
               [rng.gauss(0, 1) for _ in range(10)]

    def test_decode_rejects_garbage(self):
        with pytest.raises(CheckpointError):
            decode_rng({"state": "nope"})

    def test_key_stream_roundtrips_mid_stream(self):
        # The bulk key stream (numpy MT19937 transplant when available,
        # stdlib otherwise) must restore mid-stream from its canonical
        # {"key", "pos"} form and continue bit-identically.
        stream = _UniformKeyStream(random.Random(99))
        stream.draw(501)  # advance past a twist boundary
        state = json.loads(json.dumps(stream.getstate()))
        assert set(state) == {"key", "pos"}
        assert len(state["key"]) == 624
        clone = _UniformKeyStream(random.Random(0))
        clone.setstate(state)
        assert clone.draw(400) == stream.draw(400)

    def test_key_stream_matches_stdlib_after_restore(self):
        # Restoring the canonical form must keep the stream equal to the
        # plain rng.random() sequence from the same logical position.
        reference = random.Random(5)
        stream = _UniformKeyStream(random.Random(5))
        stream.draw(100)
        [reference.random() for _ in range(100)]
        clone = _UniformKeyStream(random.Random(1))
        clone.setstate(json.loads(json.dumps(stream.getstate())))
        assert clone.draw(50) == [reference.random() for _ in range(50)]


# ---------------------------------------------------------------------------
# Scheduler-level restore ≡ continue (trace granularity)
# ---------------------------------------------------------------------------

def _final(system):
    return sorted((p.particle_id, dict(p.memory)) for p in system.particles())


@pytest.mark.parametrize("engine", ["sweep", "event"])
@pytest.mark.parametrize("order", ["random", "round_robin", "reversed"])
def test_scheduler_resume_continues_trace(tmp_path, engine, order):
    shape = make_shape("holey", 3, seed=2)
    seed = 2
    path = tmp_path / "ck.json"
    config = {"algorithm": "dle", "seed": seed}

    # Reference: one uninterrupted run with a full per-round trace.
    reference_system = ParticleSystem.from_shape(shape, orientation_seed=seed)
    reference_trace = []
    reference = make_scheduler(engine, order=order, seed=seed).run(
        DLEAlgorithm(), reference_system, max_rounds=5000,
        round_hook=lambda r, s: reference_trace.append((r, s.snapshot())))
    assert reference.terminated

    # Interrupted run: killed at the first checkpoint save.
    system = ParticleSystem.from_shape(shape, orientation_seed=seed)
    context = CheckpointContext(path, 3, config, on_checkpoint=_bomb())
    with pytest.raises(Kill):
        run_checkpointed_stage(context, "dle", DLEAlgorithm(), system,
                               make_scheduler(engine, order=order, seed=seed),
                               5000)
    assert path.exists()

    # Resume into completely fresh objects; trace only the continuation.
    resumed_trace = []
    system = ParticleSystem.from_shape(shape, orientation_seed=seed)
    context = CheckpointContext(path, 3, config)
    assert context.resuming
    result = run_checkpointed_stage(
        context, "dle", DLEAlgorithm(), system,
        make_scheduler(engine, order=order, seed=seed), 5000,
        round_hook=lambda r, s: resumed_trace.append((r, s.snapshot())))

    assert context.resumed_round == 3
    assert result.rounds == reference.rounds
    assert result.moves == reference.moves
    assert result.terminated
    assert resumed_trace == reference_trace[context.resumed_round:]
    assert _final(system) == _final(reference_system)


def test_checkpoint_document_is_json_and_versioned(tmp_path):
    shape = make_shape("hexagon", 3, seed=0)
    path = tmp_path / "ck.json"
    system = ParticleSystem.from_shape(shape, orientation_seed=0)
    context = CheckpointContext(path, 2, {"algorithm": "dle"},
                                on_checkpoint=_bomb())
    with pytest.raises(Kill):
        run_checkpointed_stage(context, "dle", DLEAlgorithm(), system,
                               make_scheduler("event", seed=0), 5000)
    document = json.loads(path.read_text())  # plain JSON on disk
    assert document["kind"] == "repro-checkpoint"
    assert document["version"] == CHECKPOINT_VERSION
    assert document["stage"] == "dle"
    assert document["every"] == 2
    assert document["scheduler"]["engine"] == "event"
    assert document["scheduler"]["rounds"] == 2
    assert "key" in document["scheduler"]["key_stream"]
    assert document["algorithm"]["name"]
    assert document["system"]["particles"]


def test_resume_rejects_scheduler_mismatch(tmp_path):
    shape = make_shape("hexagon", 3, seed=0)
    path = tmp_path / "ck.json"
    config = {"algorithm": "dle"}
    system = ParticleSystem.from_shape(shape, orientation_seed=0)
    context = CheckpointContext(path, 2, config, on_checkpoint=_bomb())
    with pytest.raises(Kill):
        run_checkpointed_stage(context, "dle", DLEAlgorithm(), system,
                               make_scheduler("sweep", order="random", seed=0),
                               5000)
    for other in [make_scheduler("event", order="random", seed=0),
                  make_scheduler("sweep", order="reversed", seed=0),
                  make_scheduler("sweep", order="random", seed=1)]:
        system = ParticleSystem.from_shape(shape, orientation_seed=0)
        with pytest.raises(ValueError, match="written by scheduler"):
            run_checkpointed_stage(CheckpointContext(path, 2, config), "dle",
                                   DLEAlgorithm(), system, other, 5000)


def test_checkpointing_rejects_custom_order_policy():
    def custom(round_index, ids, rng):
        return list(ids)

    shape = make_shape("hexagon", 2, seed=0)
    system = ParticleSystem.from_shape(shape, orientation_seed=0)
    scheduler = make_scheduler("sweep", order=custom, seed=0)
    with pytest.raises(ValueError, match="built-in activation order"):
        scheduler.run(DLEAlgorithm(), system, max_rounds=10,
                      checkpoint_every=1, checkpoint_sink=lambda doc: None)


def test_foreign_config_checkpoint_is_ignored(tmp_path):
    path = tmp_path / "ck.json"
    write_checkpoint(path, {"config": {"algorithm": "other"},
                            "stage": "dle", "scheduler": {}})
    context = CheckpointContext(path, 2, {"algorithm": "dle"})
    assert not context.resuming
    assert context.stage_document("dle") is None


def test_future_version_checkpoint_raises(tmp_path):
    path = tmp_path / "ck.json"
    path.write_text(json.dumps({"kind": "repro-checkpoint",
                                "version": CHECKPOINT_VERSION + 1}))
    with pytest.raises(CheckpointError, match="version"):
        read_checkpoint(path)


def test_non_checkpoint_json_reads_as_none(tmp_path):
    path = tmp_path / "ck.json"
    path.write_text(json.dumps({"kind": "something-else"}))
    assert read_checkpoint(path) is None
    assert read_checkpoint(tmp_path / "missing.json") is None


# ---------------------------------------------------------------------------
# Session-level restore ≡ continue (record granularity), fuzzed over configs
# ---------------------------------------------------------------------------

# ≥10 (algorithm, family, size, seed, engine) configurations, covering both
# engines, every checkpointable pipeline and the one-shot OBD prologue.
FUZZ_CONFIGS = [
    ("dle", "hexagon", 3, 0, "sweep"),
    ("dle", "hexagon", 3, 1, "event"),
    ("dle", "holey", 3, 2, "sweep"),
    ("dle", "holey", 4, 0, "event"),
    ("dle", "blob", 3, 3, "event"),
    ("dle+collect", "holey", 3, 1, "sweep"),
    ("dle+collect", "hexagon", 3, 0, "event"),
    ("collect", "holey", 3, 0, "sweep"),
    ("erosion", "hexagon", 3, 0, "sweep"),
    ("erosion", "hexagon", 3, 1, "event"),
    ("obd+dle+collect", "holey", 3, 0, "event"),
    ("obd+dle+collect", "hexagon", 3, 1, "sweep"),
]


@pytest.mark.parametrize("algorithm,family,size,seed,engine", FUZZ_CONFIGS)
def test_session_resume_equals_uninterrupted(tmp_path, algorithm, family,
                                             size, seed, engine):
    config = {"algorithm": algorithm, "family": family, "size": size,
              "seed": seed, "scheduler": "random", "engine": engine}

    reference = Session.run(dict(config))
    assert reference.resumed_round is None

    with pytest.raises(Kill):
        Session.run(dict(config), checkpoint_every=2,
                    checkpoint_dir=tmp_path, on_checkpoint=_bomb())
    files = list(tmp_path.glob("checkpoint-*.json"))
    assert len(files) == 1  # the interrupted run left exactly one file

    resumed = Session.run(dict(config), checkpoint_every=2,
                          checkpoint_dir=tmp_path)
    assert resumed.resumed_round is not None
    assert resumed.resumed_from == str(files[0])
    assert records_to_dicts([resumed.record]) == \
           records_to_dicts([reference.record])
    assert not files[0].exists()  # discarded after the successful finish


def test_session_resume_explicit_path(tmp_path):
    config = {"algorithm": "dle", "family": "holey", "size": 3, "seed": 1,
              "scheduler": "random", "engine": "event"}
    reference = Session.run(dict(config))
    with pytest.raises(Kill):
        Session.run(dict(config), checkpoint_every=3,
                    checkpoint_dir=tmp_path, on_checkpoint=_bomb())
    (path,) = tmp_path.glob("checkpoint-*.json")

    saves = []
    resumed = Session.resume(path,
                             on_checkpoint=lambda r, p: saves.append(r))
    assert resumed.config.to_dict() == config
    assert resumed.resumed_round == 3
    # Session.resume keeps the interrupted run's cadence by default.
    assert resumed.checkpoint_every == 3
    assert saves  # kept checkpointing while it ran
    assert records_to_dicts([resumed.record]) == \
           records_to_dicts([reference.record])


def test_session_resume_missing_file_raises(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoint"):
        Session.resume(tmp_path / "missing.json")


def test_session_resume_config_free_document_raises(tmp_path):
    path = tmp_path / "ck.json"
    write_checkpoint(path, {"stage": "dle", "scheduler": {}})
    with pytest.raises(CheckpointError, match="no run config"):
        Session.resume(path)


def test_session_without_checkpointing_has_no_side_effects(tmp_path):
    session = Session.run({"algorithm": "dle", "family": "hexagon",
                           "size": 2, "seed": 0})
    assert session.checkpoint_path is None
    assert session.record.succeeded
    assert list(tmp_path.iterdir()) == []


def test_full_pipeline_skips_completed_obd_on_resume(tmp_path):
    # A kill during the DLE stage must not re-run OBD on resume: its
    # summary travels in the checkpoint's completed-stages block.
    config = {"algorithm": "obd+dle+collect", "family": "holey", "size": 3,
              "seed": 0, "scheduler": "random", "engine": "sweep"}
    reference = Session.run(dict(config))
    with pytest.raises(Kill):
        Session.run(dict(config), checkpoint_every=2,
                    checkpoint_dir=tmp_path, on_checkpoint=_bomb())
    (path,) = tmp_path.glob("checkpoint-*.json")
    document = json.loads(path.read_text())
    assert document["completed"]["obd"]["rounds"] > 0

    resumed = Session.run(dict(config), checkpoint_every=2,
                          checkpoint_dir=tmp_path)
    assert resumed.record.details["obd_rounds"] == \
           reference.record.details["obd_rounds"]
    assert records_to_dicts([resumed.record]) == \
           records_to_dicts([reference.record])
