"""Smoke tests of the scripts in ``scripts/``, each run as its own process."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_make_corpus_and_output_digests(tmp_path):
    made = _run("make_corpus.py", tmp_path)
    assert made.returncode == 0, made.stderr
    assert len(list(tmp_path.glob("*.fw"))) == 15
    digests = _run("output_digests.py", tmp_path / "square.fw")
    assert digests.returncode == 0, digests.stderr
    lines = digests.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [["exact", "square.fw"],
                                                    ["float", "square.fw"]]
    assert all(line.split()[2].startswith("analyze=0:") for line in lines)


def test_desargues_migration():
    done = _run("desargues_migration.py", "1/100", 2)
    assert done.returncode == 0, done.stderr
    assert done.stdout
