"""Byte pins on three observability outputs: the exactness contract as a test.

Each pin is the sha256 and byte length of one serialized output:

* a small fig4-point capture's ``RunArtifact.to_json()``;
* that capture's Chrome ``trace_event`` export;
* the Figure-7 capture's Chrome export.

Together they cover the simulated numbers (timings, journeys, time
series, metrics, the envelope-check verdict) and the exporters' byte
format.  A change that deletes or refactors telemetry must leave them
alone.  Regenerate a pin only when a change moves it on purpose
(print ``_pin(...)`` for the output in question), and name the pin with
its old and new values in CHANGES.md.  Never re-record one to make an
unexplained failure go away.
"""

import hashlib

from repro.obs import chrome_trace_json
from repro.trace import capture_fig4_point, capture_fig7

#: (sha256 hex digest, byte length) of each pinned output
FIG4_POINT_ARTIFACT = (
    "1293f6e8b66e6ae483bba9fa4c6a12424ff29ab34583a25a922a4cbd5f3a7e61", 189967)
FIG4_POINT_CHROME = (
    "6e2aa5037eaa7ad158767e97c4b2d8da306693cab42aaf040d3be0d5d42226f9", 209060)
FIG7_CHROME = (
    "18523a3deb6cbc0233d64357a62e123add687db280625a8bcc29d3e78beea62f", 3905)


def _pin(text: str):
    """(sha256, length) of ``text``'s UTF-8 bytes."""
    data = text.encode("utf-8")
    return hashlib.sha256(data).hexdigest(), len(data)


def _chrome(art) -> str:
    """The Chrome export ``python -m repro.trace`` writes for ``art``."""
    return chrome_trace_json(art.spans, art.records, art.journeys, art.timeseries)


def test_fig4_point_artifact_and_chrome_export_are_pinned():
    art = capture_fig4_point(nbytes=65536, messages=2, loss=0.02, seed=42)
    assert _pin(art.to_json()) == FIG4_POINT_ARTIFACT
    assert _pin(_chrome(art)) == FIG4_POINT_CHROME


def test_fig7_chrome_export_is_pinned():
    assert _pin(_chrome(capture_fig7())) == FIG7_CHROME
