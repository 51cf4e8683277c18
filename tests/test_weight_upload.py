"""Tests for the opt-in weight-upload dimension of cold starts."""

import pytest

from repro.core.schemes import Scheme
from repro.serving.server import InferenceServer


@pytest.fixture(scope="module")
def plain():
    return InferenceServer("MI100")


@pytest.fixture(scope="module")
def uploading():
    return InferenceServer("MI100", upload_weights=True)


def test_weight_bytes_in_program_metadata(plain):
    program = plain._lowered("vgg", Scheme.BASELINE, 1)
    # VGG16 carries ~528 MB of fp32 weights.
    assert program.metadata["weight_bytes"] > 400_000_000


def test_upload_slows_baseline(plain, uploading):
    without = plain.serve_cold("vgg", Scheme.BASELINE)
    with_upload = uploading.serve_cold("vgg", Scheme.BASELINE)
    assert with_upload.total_time > without.total_time
    # The difference is roughly the H2D time of ~528 MB at 16 GB/s.
    delta = with_upload.total_time - without.total_time
    assert delta == pytest.approx(0.033, rel=0.2)


def test_pask_overlaps_upload(plain, uploading):
    """PASK's concurrent DMA hides part (or all) of the upload."""
    base_delta = (uploading.serve_cold("res", Scheme.BASELINE).total_time
                  - plain.serve_cold("res", Scheme.BASELINE).total_time)
    pask_delta = (uploading.serve_cold("res", Scheme.PASK).total_time
                  - plain.serve_cold("res", Scheme.PASK).total_time)
    assert pask_delta < base_delta


def test_upload_disabled_by_default(plain):
    program = plain._lowered("res", Scheme.BASELINE, 1)
    assert not program.metadata.get("upload_weights")
    result = plain.serve_cold("res", Scheme.BASELINE)
    assert not [r for r in result.trace.records
                if r.label == "weight-upload"]


@pytest.mark.parametrize("scheme", list(Scheme))
def test_every_cold_serve_uploads(scheme):
    """Each cold serve is a fresh instance: the shared registered
    program must not carry "already uploaded" from one serve to the
    next."""
    server = InferenceServer("MI100", upload_weights=True)
    for _ in range(2):
        result = server.serve_cold("vgg", scheme)
        uploads = [r for r in result.trace.records
                   if r.label == "weight-upload"]
        assert len(uploads) == 1


def test_session_uploads_once(uploading):
    results = uploading.serve_session("alex", Scheme.PASK, n_requests=2,
                                      interval_s=0.01)
    uploads_first = [r for r in results[0].trace.records
                     if r.label == "weight-upload"]
    uploads_second = [r for r in results[1].trace.records
                      if r.label == "weight-upload"]
    assert len(uploads_first) == 1
    assert len(uploads_second) == 0


def test_hot_run_never_uploads(uploading):
    result = uploading.serve_hot("vgg")
    assert not [r for r in result.trace.records
                if r.label == "weight-upload"]
