"""scripts/check_moves.py on two small digest listings, run as CI runs it."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "check_moves.py"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

BASE = {"cpu/report.json": "aa" * 32, "cpu/loss.csv": "bb" * 32, "cpu/raster.csv": "cc" * 32}
# the report and the loss moved; the raster kept its bytes
HEAD = {**BASE, "cpu/report.json": "dd" * 32, "cpu/loss.csv": "ee" * 32}


def listing(path, digests):
    path.write_text("".join(f"{d}  {name}\n" for name, d in sorted(digests.items())))
    return path


def check(tmp_path, names_file, base=BASE):
    return subprocess.run([sys.executable, str(SCRIPT), str(listing(tmp_path / "base.txt", base)),
                           str(listing(tmp_path / "head.txt", HEAD)), str(names_file)],
                          capture_output=True, text=True)


def names(tmp_path, *lines):
    path = tmp_path / "names.txt"
    path.write_text("".join(f"{line}\n" for line in lines))
    return path


def test_an_unnamed_move_fails(tmp_path):
    run = check(tmp_path, names(tmp_path, "cpu/report.json"))
    assert run.returncode == 1
    assert run.stdout == "cpu/loss.csv: moved, but no MOVED line names it\n"


def test_a_stale_name_fails(tmp_path):
    run = check(tmp_path, names(tmp_path, "cpu/report.json", "cpu/loss.csv", "cpu/raster.csv"))
    assert run.returncode == 1
    assert run.stdout == "cpu/raster.csv: named in a MOVED line, but did not move\n"


def test_a_file_in_one_listing_only_is_a_move(tmp_path):
    run = check(tmp_path, names(tmp_path, "cpu/report.json", "cpu/loss.csv"),
                base={**BASE, "cpu/gone.csv": "ff" * 32})
    assert run.returncode == 1
    assert run.stdout == "cpu/gone.csv: moved, but no MOVED line names it\n"


@pytest.mark.skipif(shutil.which("git") is None or shutil.which("bash") is None,
                    reason="needs git and bash")
def test_exact_names_pass_when_read_off_the_changes_diff_as_ci_reads_them(tmp_path):
    # CI builds NAMES from the MOVED lines that a change adds to CHANGES.md.
    # Here the change also rewrites an earlier entry, so the diff removes
    # its `MOVED: cpu/raster.csv`: only the added lines may be read
    repo = tmp_path / "repo"
    repo.mkdir()
    git = ["git", "-C", str(repo), "-c", "user.name=check", "-c", "user.email=check@example.com"]
    changes = repo / "CHANGES.md"
    changes.write_text("- An earlier entry.\nMOVED: cpu/raster.csv\n")
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "CHANGES.md"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "base"], check=True)
    base_sha = subprocess.run([*git, "rev-parse", "HEAD"], check=True, capture_output=True,
                              text=True).stdout.strip()
    changes.write_text("- An earlier entry, reworded.\n"
                       "- This change.\nMOVED: cpu/report.json\nMOVED: cpu/loss.csv\n")
    command = next(line.strip() for line in WORKFLOW.read_text().splitlines()
                   if "MOVED: " in line and "sed" in line)
    env = {**os.environ, "BASE_SHA": base_sha, "RUNNER_TEMP": str(tmp_path)}
    subprocess.run(["bash", "-euo", "pipefail", "-c", command], cwd=repo, env=env, check=True)
    run = check(tmp_path, tmp_path / "moved.txt")
    assert run.returncode == 0, run.stdout
    assert run.stdout == "the 2 named files moved, and no other\n"
