import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from odrelease.cli import main as cli_main  # noqa: E402

SMALL = {
    "synth": {
        "generate_od": {"n_neighborhoods": 10, "n_pairs": 30, "total": 2000, "seed": 1},
        "trips": 5000,
        "mode": "correlated",
        "seed": 2,
    },
    "repair": {"x": "gender", "y": "rating", "z": ["origin", "destination"]},
    "privacy": {"epsilon": 1.0, "rho": 0.5},
    "order": "privacy-first",
    "bootstrap": {"replicates": 5},
    "seed": 3,
}


@pytest.fixture(scope="module")
def release(tmp_path_factory):
    root = tmp_path_factory.mktemp("release")
    config = root / "pipeline.json"
    config.write_text(json.dumps(SMALL), encoding="utf8")
    out = root / "out"
    assert cli_main(["release", "--config", str(config), "--out", str(out)]) == 0
    return out, checks.m_original(SMALL)


def _ledger(tmp_path) -> run.Ledger:
    return run.Ledger(tmp_path / "digests.json", "key")


def test_clean_release_passes(release, tmp_path):
    out, original = release
    ledger = _ledger(tmp_path)
    ledger.record("release", checks.check_release(out, original))
    assert (ledger.attempted, ledger.failures) == (1, [])


def _corrupt(release, tmp_path, edit) -> run.Ledger:
    out, original = release
    copy = tmp_path / "out"
    copy.mkdir()
    for p in out.iterdir():
        (copy / p.name).write_bytes(p.read_bytes())
    released = copy / "released.csv"
    released.write_text(edit(released.read_text(encoding="utf8")), encoding="utf8")
    ledger = _ledger(tmp_path)
    ledger.record("release", checks.check_release(copy, original))
    return ledger


def test_changed_count_in_released_csv_is_a_failure(release, tmp_path):
    def bump_first_count(text):
        header, first, *rest = text.splitlines()
        key, count = first.rsplit(",", 1)
        return "\n".join([header, f"{key},{int(count) + 1}", *rest]) + "\n"

    ledger = _corrupt(release, tmp_path, bump_first_count)
    assert ledger.attempted == 1 and len(ledger.failures) == 1
    assert "hellinger" in ledger.failures[0]


def test_unparseable_released_csv_is_a_failure(release, tmp_path):
    ledger = _corrupt(release, tmp_path, lambda text: text + "nowhere,n00,m,1,7\n")
    assert ledger.attempted == 1 and len(ledger.failures) == 1


def test_sweep_row_count_is_checked(tmp_path):
    (tmp_path / "sweep.csv").write_text(
        "epsilon,rho,trial,pwkt,hellinger,bins_released\n1.0,0.5,0,3.5,0.25,10\n", encoding="utf8"
    )
    assert checks.check_sweep(tmp_path, rows=1) == []
    assert checks.check_sweep(tmp_path, rows=12) != []


def test_changed_output_bytes_are_a_failure(tmp_path):
    ledger = _ledger(tmp_path)
    assert ledger.compare("release", {"released.csv": "aa"}) == []
    assert ledger.compare("release", {"released.csv": "aa"}) == []
    assert ledger.compare("release", {"released.csv": "bb"}) != []
