"""Smoke tests of the scripts in ``scripts/``, each run as its own process."""

import os
import subprocess
import sys
from pathlib import Path

from framehom import make_named, save_framework

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


def test_output_digests_reads_a_directory_in_sorted_order(tmp_path):
    # a directory stands for its *.fw files, sorted, then those of each
    # subdirectory: the lines of the same files named one by one
    (tmp_path / "large").mkdir()
    for name, path in (("square", "square.fw"), ("bar", "bar.fw"),
                       ("triangle", "large/triangle.fw")):
        save_framework(make_named(name), tmp_path / path)
    (tmp_path / "notes.txt").write_text("not a frame\n")
    walked = _run("output_digests.py", tmp_path)
    assert walked.returncode == 0, walked.stderr
    assert [line.split()[:2] for line in walked.stdout.splitlines()] == [
        [mode, name] for name in ("bar.fw", "square.fw", "triangle.fw")
        for mode in ("exact", "float")]
    named = _run("output_digests.py", *(tmp_path / p for p in
                                        ("bar.fw", "square.fw", "large/triangle.fw")))
    assert named.stdout == walked.stdout


def test_desargues_migration():
    done = _run("desargues_migration.py", "1/100", 2)
    assert done.returncode == 0, done.stderr
    assert done.stdout
