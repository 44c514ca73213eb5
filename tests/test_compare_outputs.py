"""``tools/compare_outputs.py``'s comparison of two output directories."""

import importlib.util
import pathlib

import twomass
from twomass.cli import main

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
MANIFEST = pathlib.Path(__file__).with_name("outputs.sha256")
_spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

SUMMARY = "run: fb\nstatus: completed\ncontroller wall time per tick [us]: p50={}\nmetrics: x=1\n"


def _tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


def test_only_the_measured_summary_line_may_differ(tmp_path):
    same = {"p/fb-trace.csv": "t\n0.0\n", "p/fb-summary.txt": SUMMARY.format(1.5)}
    parent = _tree(tmp_path / "parent", same)
    change = _tree(tmp_path / "change", {**same, "p/fb-summary.txt": SUMMARY.format(9.0)})
    assert compare_outputs.differences(parent, change) == []


def test_each_difference_is_named(tmp_path):
    parent = _tree(tmp_path / "parent", {
        "p/fb-trace.csv": "t\n0.0\n", "p/fb-summary.txt": SUMMARY.format(1.5), "gone.csv": "",
    })
    change = _tree(tmp_path / "change", {
        "p/fb-trace.csv": "t\n0.5\n", "p/fb-summary.txt": SUMMARY.format(1.5) + "note: x\n",
        "new.csv": "",
    })
    found = compare_outputs.differences(parent, change)
    assert [entry.split("\n")[0] for entry in found] == [
        "gone.csv: only in the parent's outputs",
        "new.csv: only in the change's outputs",
        "p/fb-summary.txt: differs",
        "p/fb-trace.csv: differs",
    ]
    assert "+note: x" in found[2] and "-0.0" in found[3] and "+0.5" in found[3]


def test_each_bad_input_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, files, argv in compare_outputs._BAD_INPUTS:
        for file, text in files.items():
            (tmp_path / file).write_text(text)
        assert main(argv) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, name


def test_a_new_manifest_names_each_changed_file(tmp_path, monkeypatch, capsys):
    # against the manifest that the file held: one file changed, one gone
    # and one new, and one the same, which goes unnamed
    old = _tree(tmp_path / "old", {"p/a.csv": "t\n0.0\n", "p/b.csv": "t\n0.0\n", "gone.csv": ""})
    files = {"p/a.csv": "t\n0.0\n", "p/b.csv": "t\n0.5\n", "new.csv": ""}
    target = tmp_path / "outputs.sha256"
    target.write_text(compare_outputs.manifest(old))
    monkeypatch.setattr(compare_outputs, "write_outputs",
                        lambda src, out: _tree(pathlib.Path(out), files))
    assert compare_outputs.main(["--manifest", str(target), "src"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "gone.csv: no longer written",
        "new.csv: new",
        "p/b.csv: digest changed",
        f"3 files hashed into {target}, 3 changed",
    ]
    assert target.read_text() == compare_outputs.manifest(_tree(tmp_path / "new", files))


def test_every_output_matches_the_manifest(tmp_path):
    # the tree under test writes every compared file in one subprocess; a
    # change that alters outputs on purpose regenerates the manifest with
    # ``tools/compare_outputs.py --manifest tests/outputs.sha256 src``
    out = str(tmp_path / "out")
    compare_outputs.write_outputs(str(pathlib.Path(twomass.__file__).parents[1]), out)
    pinned = MANIFEST.read_text("utf-8")
    changed = compare_outputs.manifest_changes(pinned, compare_outputs.manifest(out))
    assert not changed, f"{len(changed)} files differ: {', '.join(changed)}"
    assert len(pinned.splitlines()) > 80
