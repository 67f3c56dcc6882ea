"""``--jobs N`` must not change what the battery measures.

Runs a two-experiment battery through the real CLI twice — serial and
``--jobs 2`` — and requires the JSON artifacts to be byte-identical,
*including* the aggregated profiler tallies (worker-side snapshots are
folded back into the parent sink).
"""

import json

import pytest

from repro.experiments.registry import main


def _battery(tmp_path, tag, extra):
    path = tmp_path / f"batch-{tag}.json"
    assert main(["fig7", "comparison", *extra, "--json", str(path)]) == 0
    return json.loads(path.read_text())


def test_battery_jobs2_byte_identical(tmp_path, capsys):
    serial = _battery(tmp_path, "serial", [])
    parallel = _battery(tmp_path, "jobs2", ["--jobs", "2"])
    capsys.readouterr()  # drop the printed reports
    assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)
    assert [run["experiment"] for run in parallel["runs"]] == ["fig7", "comparison"]


@pytest.mark.slow
def test_resilience_jobs2_fleet_fold_byte_identical(tmp_path, capsys):
    """The fleet-wide digest fold happens in the parent, in submission
    order, so a ``--jobs 2`` resilience sweep — cells fanned out over a
    pool, digests folded back with ``merge_from`` — must be
    byte-identical to the serial run, global percentiles included."""

    def run(tag, extra):
        path = tmp_path / f"res-{tag}.json"
        assert main(["resilience", *extra, "--json", str(path)]) == 0
        return json.loads(path.read_text())

    serial = run("serial", [])
    parallel = run("jobs2", ["--jobs", "2"])
    capsys.readouterr()
    assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)
    fleet = parallel["result"]["fleet"]
    assert fleet["syscall_ns"]["count"] > 0
