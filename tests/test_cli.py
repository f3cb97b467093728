from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

from catengine import cli
from conftest import deadline


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = cli.main(list(argv))
        out = capsys.readouterr().out
        return code, out

    return _run


def test_validate_exit_zero(run):
    code, out = run("validate", "ONE")
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_validate_bad_input_exit_two(run, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"objects": ["A"], "morphisms": [], "identities": {}}))
    code, _ = run("validate", str(bad))
    assert code == 2
    code2, _ = run("validate", "NO_SUCH_CATEGORY")
    assert code2 == 2


def test_check_flat_failure_exit_one_with_witness(run, tmp_path):
    f = tmp_path / "delta1.json"
    f.write_text(json.dumps({"name": "Delta1", "values": {"A": ["*"], "B": ["*"]}, "maps": {}}))
    code, out = run("check-flat", "--category", "DISC2", "--functor", str(f))
    assert code == 1
    report = json.loads(out)
    assert report["verdict"]["failing_weight"]["diagram"] == "empty"


def test_check_flat_replay_witness(run, tmp_path):
    # the witness names a diagram that reproduces the failure in isolation
    f = tmp_path / "delta1.json"
    f.write_text(json.dumps({"name": "Delta1", "values": {"A": ["*"], "B": ["*"]}, "maps": {}}))
    _, out = run("check-flat", "--category", "DISC2", "--functor", str(f))
    witness = json.loads(out)["verdict"]["failing_weight"]
    from catengine import corpus, fincat as fc, presheaf as ps, flatness as fl

    DISC2 = corpus.load("DISC2")
    assert witness["diagram"] == "empty"
    replay = fl.is_flat_set_valued(
        ps.constant_set_functor(DISC2), diagrams=[fc.empty_diagram(DISC2)]
    )
    assert not replay.flat


def test_build_completion_and_verify(run, tmp_path):
    out_file = tmp_path / "par_pret.json"
    code, _ = run("build-completion", "--category", "PAR", "--flavor", "pret", "--out", str(out_file))
    assert code == 0 and out_file.exists()
    code2, out2 = run("verify-axioms", "--completion", str(out_file), "--flavor", "reg")
    report = json.loads(out2)
    assert "limits" in report["checks"]


def test_fam_battery_exit_codes(run):
    code, _ = run("verify-axioms", "--category", "DISC2", "--flavor", "fam_f")
    assert code == 0
    code2, out2 = run("verify-axioms", "--category", "PAR", "--flavor", "fam_f")
    assert code2 == 1
    assert json.loads(out2)["checks"]["limits"]["witness"] == "terminal"


# exit code and witnesses of batteries at default bounds that once listed
# every morphism of the completion before their first check, for minutes;
# PAR pret walked every pair of every hom-set as a relation, and every
# injection pullback, until hom-sets that cannot hold a relation were
# skipped and injection pullbacks were certified by connected components:
# each of its witnesses is the one its check gave run alone before that.
# ARROW, DISC2 and Z2 pret walked the pairs of hom-sets that fit a relation
# (half a minute on ARROW, past five minutes on DISC2) until congruences
# replaced them: ARROW pret's bytes are the walk's, and every DISC2 pret
# witness but the relations' is the one its check gave run alone before.
# PAR ex ran away in close, which walked every pair of every hom-set as a
# relation, until close listed congruences as the battery does
ENDED_RUNAWAYS = {
    "PAR none": (1, {"limits": "product M0 x M23"}),
    "PAR lext": (1, {
        "limits": "product M0 x M23", "coproducts": "coproduct M0 + M10",
        "coproducts_universal": "pullback of injection 0 of M0+M0 along M21->M3 missing",
    }),
    "ONE lext": (3, "bound exceeded: value set of size 65 exceeds cap 64 in presheaf M0+M22\n"),
    "Z2 lext": (3, "bound exceeded: value set of size 72 exceeds cap 64 in presheaf M12+M21\n"),
    "PAR pret": (1, {
        "limits": "product M0 x M20", "regular_epi_stability": "pullback of epi M1->M2 along M4->M2 missing",
        "kernel_pair_quotients": "kernel pair of M4->M1 missing",
        "effective_equivalence_relations": "quotient of M10 by M12 missing", "coproducts": "coproduct M0 + M14",
    }),
    "ARROW pret": (1, {
        "limits": "product M3 x M6", "regular_epi_stability": "pullback of epi M3->M0 along M6->M0 missing",
        "kernel_pair_quotients": "kernel pair of M6->M0 missing", "coproducts": "coproduct M0 + M15",
    }),
    "DISC2 pret": (1, {
        "limits": "product M4 x M9", "regular_epi_stability": "pullback of epi M4->M0 along M9->M0 missing",
        "kernel_pair_quotients": "kernel pair of M9->M0 missing", "coproducts": "coproduct M0 + M14",
        "coproducts_universal": "pullback of injection 1 of M0+M2 along M15->M5 missing",
    }),
    "Z2 pret": (3, "bound exceeded: value set of size 72 exceeds cap 64 in presheaf M12+M21\n"),
    "PAR ex": (3, "bound exceeded: value set of size 128 exceeds cap 64 in presheaf M1xM18\n"),
}
# sha256 of exit code, newline and stdout
RUNAWAY_DIGESTS = {
    "PAR pret": "acd30e6e1a941c86854f0e5b3919ed587fd86c44b78027d6db4191a07734ae05",
    "ARROW pret": "4a4aea1fcd91c76895bedc0906a3751941c4eb01e960f516e764b8606860d5d7",
}


@pytest.mark.parametrize("case", sorted(ENDED_RUNAWAYS))
def test_default_bound_batteries_end(case, capsys):
    name, flavor = case.split()
    with deadline(20, f"verify-axioms {case}"):
        code = cli.main(["verify-axioms", "--category", name, "--flavor", flavor])
    captured = capsys.readouterr()
    expected_code, witnesses = ENDED_RUNAWAYS[case]
    assert code == expected_code
    if code == 3:
        assert captured.err == witnesses
    else:
        checks = json.loads(captured.out)["checks"]
        assert {n: c["witness"] for n, c in checks.items() if not c["passed"]} == witnesses
    if case in RUNAWAY_DIGESTS:
        assert hashlib.sha256(f"{code}\n{captured.out}".encode()).hexdigest() == RUNAWAY_DIGESTS[case]


@pytest.mark.parametrize("bounds", [[], ["--bounds", "max_objects=12,max_iterations=2"]], ids=["default", "small"])
def test_par_ex_closure_ends(bounds, capsys):
    # the pair walk took 1.5 million backtrack decisions at the small bounds
    # and ran for minutes at the default ones
    argv = ["build-completion", "--category", "PAR", "--flavor", "ex", "--construction", "close", *bounds]
    with deadline(20, f"build-completion PAR ex/close {bounds}"):
        code = cli.main(argv)
    assert code == 0
    assert any(o["provenance"]["kind"] == "quotient" for o in json.loads(capsys.readouterr().out)["objects"])


def test_ultraproduct_command(run):
    code, out = run(
        "ultraproduct", "--host", "DISC2", "--family", "x0:A,x1:B", "--ultrafilter", "principal:x0"
    )
    assert code == 0
    report = json.loads(out)
    assert report["universal_ultraproduct"] == "A"
    assert report["cross_checks"]["sigma_agrees"] is True


def test_ultraproduct_bound_exit_three(run):
    family = ",".join(f"x{i}:A" for i in range(11))
    code, _ = run("ultraproduct", "--host", "DISC2", "--family", family, "--ultrafilter", "principal:x0")
    assert code == 3


def test_dot_outputs(run, tmp_path):
    _, out = run("validate", "ONE", "--format", "dot")
    assert out.count('";') == 1 and "->" not in out
    _, out2 = run("validate", "PAR", "--format", "dot")
    assert out2.count("->") == 2
    f = tmp_path / "homA.json"
    f.write_text(
        json.dumps(
            {
                "name": "homA",
                "values": {"A": ["1A"], "B": ["u", "v"]},
                "maps": {"u": {"1A": "u"}, "v": {"1A": "v"}},
            }
        )
    )
    code, out3 = run("check-flat", "--category", "PAR", "--functor", str(f), "--format", "dot")
    assert code == 0
    assert out3.count('";') == 3 and out3.count("->") == 2


def test_localize_command(run, tmp_path):
    cong = tmp_path / "cong.json"
    cong.write_text(json.dumps({"members": ["1A", "1B", "u"], "kind": "pullback"}))
    code, out = run(
        "localize", "--category", "ARROW", "--congruence", str(cong),
        "--check-universal", "--targets", "ONE,DISC2",
    )
    assert code == 0
    assert json.loads(out)["universal_check"]["passed"] is True


def test_orthogonality_command(run, tmp_path):
    cone = tmp_path / "cone.json"
    cone.write_text(json.dumps({"vertex": "0", "legs": []}))
    code, _ = run("orthogonality", "--host", "/dev/null/none", "--cone", str(cone))
    assert code == 2


def test_analyze_limits(run):
    code, out = run("analyze-limits", "PAR", "--mode", "weak")
    assert code == 0
    report = json.loads(out)
    assert report["reports"]["weak"]["passed"] is False
    assert report["reports"]["weak"]["witness"] == "[A,B|u,v]"


def test_report_deterministic(run):
    _, out1 = run("report", "--seed", "7")
    _, out2 = run("report", "--seed", "7")
    assert out1 == out2
    assert json.loads(out1)["seed"] == 7


def test_cli_subprocess_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "catengine.cli", "validate", "Z2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["morphisms"] == 2


def test_parser_built_once_leaves_no_state(capsys):
    # main reuses one parser; back-to-back commands, a default after an
    # explicit value and a usage error print exactly what fresh processes print
    assert cli.build_parser() is cli.build_parser()
    runs = [
        ["analyze-limits", "PAR", "--mode", "weak", "--diagram", "empty"],
        ["validate", "Z2", "--format", "text"],
        ["analyze-limits", "PAR", "--diagram", "empty"],
        ["validate", "Z2", "--format", "xml"],
    ]
    for argv in runs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        got = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "catengine.cli", *argv], capture_output=True, text=True)
        assert (got.out, got.err, code) == (fresh.stdout, fresh.stderr, fresh.returncode), argv
    assert code == 2 and "invalid choice: 'xml'" in got.err


def test_analyze_limits_weight_dot(run):
    code, out = run("analyze-limits", "PAR", "--mode", "weak", "--diagram", "empty", "--format", "dot")
    assert code == 0
    assert out.count('";') == 2 and out.count("->") == 2  # two cones, two comparisons


def test_check_flat_completion_valued_functor(run, tmp_path):
    comp = tmp_path / "pret.json"
    code, _ = run("build-completion", "--category", "PAR", "--flavor", "pret", "--out", str(comp))
    assert code == 0
    # the inclusion of PAR into its completion, written by object/morphism names
    report = json.loads(comp.read_text())
    from catengine import completions as cp, corpus

    E = cp.completion_from_json(report)
    PAR = corpus.load("PAR")
    fd, _ = E.inclusion()
    Ecat = E.as_category()
    functor = {
        "name": "K",
        "objects": {PAR.objects[a]: Ecat.objects[fd.object_map[a]] for a in range(2)},
        "morphisms": {
            PAR.morphisms[m]: Ecat.morphisms[fd.morphism_map[m]] for m in range(4)
        },
    }
    ffile = tmp_path / "K.json"
    ffile.write_text(json.dumps(functor))
    code, out = run(
        "check-flat", "--category", "PAR", "--functor", str(ffile),
        "--target", str(comp), "--method", "fc",
    )
    assert code == 0
    assert json.loads(out)["verdict"]["flat"] is True


def test_sketch_models_with_limit_specs(run, tmp_path):
    sketch = tmp_path / "sk.json"
    sketch.write_text(
        json.dumps(
            {
                "limits": [
                    {"kind": "terminal", "apex": "B"},
                    {"kind": "product", "apex": "A", "legs": ["1A", "1A"]},
                ],
                "coproducts": [],
                "fc_epis": [],
            }
        )
    )
    code, out = run("sketch-models", "--category", "ARROW", "--sketch", str(sketch), "--value-bound", "2")
    assert code == 0
    assert json.loads(out)["count"] == 2  # the two finite-limit-preserving functors


def test_universal_property_cli_other_flavors(run):
    code, out = run("universal-property", "--category", "ONE", "--flavor", "reg", "--value-bound", "2")
    assert code == 0
    assert json.loads(out)["correspondence"] is True


def test_orthogonality_command_success(run, tmp_path):
    comp = tmp_path / "pret.json"
    assert run("build-completion", "--category", "DISC2", "--flavor", "pret", "--out", str(comp))[0] == 0
    from catengine import completions as cp

    E = cp.completion_from_json(json.loads(comp.read_text()))
    cat = E.as_category()
    # a cone with a single identity leg is orthogonal against everything
    vertex = 0
    cone = tmp_path / "cone.json"
    cone.write_text(json.dumps({"vertex": cat.objects[vertex], "legs": [cat.morphisms[cat.identity[vertex]]]}))
    code, out = run("orthogonality", "--host", str(comp), "--cone", str(cone))
    assert code == 0
    results = json.loads(out)["results"]
    assert all(v["orthogonal"] and v["injective"] for v in results.values())


@pytest.mark.parametrize("bounds", ["nonsense=3", "max_objects=abc", "max_objects"])
def test_malformed_bounds_exit_two(bounds, capsys):
    code = cli.main(["build-completion", "--category", "ONE", "--bounds", bounds])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error: ") and "max_objects" in err


# enumeration_cap=0 once passed universal-property vacuously (0 flat and 0
# exact functors, exit 0), -1 drew without end, and a max_fiber above the
# presheaf fiber cap acted as that cap; functor_value_bound and seed are
# retired fields that no code read
BAD_BOUNDS = [("enumeration_cap", 0), ("enumeration_cap", -1), ("max_fiber", 65),
              ("functor_value_bound", 3), ("seed", 0)]


@pytest.mark.parametrize("key, value", BAD_BOUNDS)
def test_out_of_range_or_retired_bound_exits_two(key, value, capsys):
    code = cli.main(["universal-property", "--category", "ONE", "--flavor", "reg", "--bounds", f"{key}={value}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("input error: ") and key in captured.err


@pytest.mark.parametrize("key, value", BAD_BOUNDS)
def test_completion_file_with_bad_bound_exits_two(key, value, run, tmp_path, capsys):
    comp = tmp_path / "lext.json"
    assert run("build-completion", "--category", "ONE", "--flavor", "lext", "--out", str(comp))[0] == 0
    data = json.loads(comp.read_text())
    data["bounds"][key] = value
    comp.write_text(json.dumps(data))
    code = cli.main(["verify-axioms", "--completion", str(comp)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("input error: ") and key in captured.err and "Traceback" not in captured.err


def test_check_flat_rejects_non_functor_file(run, tmp_path):
    # the action of s must square to the identity on Z2; a constant one does not
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"name": "Bad", "values": {"*": ["a", "b"]}, "maps": {"s": {"a": "a", "b": "a"}}}))
    code, out = run("check-flat", "--category", "Z2", "--functor", str(f))
    assert code == 2 and out == ""


@pytest.mark.parametrize("functor", [
    {"values": {"A": [[1]], "B": ["x"]}, "maps": {}},
    {"values": ["x"]},
    {"values": {"A": ["x"], "B": ["y"]}, "maps": {"u": {"x": ["y"]}}},
])
def test_check_flat_rejects_malformed_functor_file(functor, tmp_path, capsys):
    # each of these once escaped as a TypeError or AttributeError traceback
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(functor))
    code = cli.main(["check-flat", "--category", "ARROW", "--functor", str(f)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("input error: functor ")


@pytest.mark.parametrize("category", [
    {"objects": ["A"], "morphisms": ["1A"], "identities": {"A": "1A"}},
    {"objects": ["A"], "morphisms": [{"id": "1A", "src": "A", "tgt": "A"}], "identities": {"A": "1A"},
     "compose": ["1A"]},
    {"objects": [["A"]], "morphisms": [], "identities": {}},
    {"objects": ["A"], "morphisms": [{"id": "1A", "src": "A"}], "identities": {"A": "1A"}},
    {"objects": "AB", "morphisms": [{"id": "1A", "src": "A", "tgt": "A"}, {"id": "1B", "src": "B", "tgt": "B"}],
     "identities": {"A": "1A", "B": "1B"}},
    {"name": ["x"], "objects": ["A"], "morphisms": [{"id": "1A", "src": "A", "tgt": "A"}], "identities": {"A": "1A"}},
    {"objects": ["A"], "morphisms": {"id": "1A", "src": "A", "tgt": "A"}, "identities": {"A": "1A"}},
    {"objects": ["A"], "morphisms": [{"id": "1A", "src": "A", "tgt": "A"}], "identities": [["A", "1A"]]},
    {"objects": ["A"], "morphisms": [{"id": "1A", "src": "A", "tgt": "A"}], "identities": {"A": "1A"}, "compose": "x"},
    ["A"],
])
def test_malformed_category_file_exit_two(category, tmp_path, capsys):
    # the first three once escaped as a TypeError traceback with exit 1; the
    # next two were read as objects A and B and as a category named ['x']
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(category))
    code = cli.main(["analyze-limits", str(f), "--mode", "weak"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("input error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["build-completion", "verify-axioms", "universal-property"])
def test_poly_flavor_rejected(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--category", "ONE", "--flavor", "poly"])
    assert exc.value.code == 2 and "invalid choice: 'poly'" in capsys.readouterr().err


def test_poly_completion_file_rejected(run, tmp_path, capsys):
    comp = tmp_path / "lext.json"
    assert run("build-completion", "--category", "ONE", "--flavor", "lext", "--out", str(comp))[0] == 0
    data = json.loads(comp.read_text())
    data["flavor"] = "poly"
    comp.write_text(json.dumps(data))
    code = cli.main(["verify-axioms", "--completion", str(comp)])
    assert code == 2 and capsys.readouterr().err == "input error: unknown flavor 'poly'\n"


@pytest.mark.parametrize("path, value", [
    (("objects", 0, "values"), 5),
    (("bounds",), [24, 64]),
    (("objects", 0), "M0"),
    (("objects", 0, "actions", 0), [["0"]]),
    (("saturated",), "yes"),
])
def test_malformed_completion_file_exit_two(path, value, run, tmp_path, capsys):
    # the first three once ended in a TypeError or AttributeError traceback
    comp = tmp_path / "lext.json"
    assert run("build-completion", "--category", "ARROW", "--flavor", "lext", "--out", str(comp))[0] == 0
    data = json.loads(comp.read_text())
    *parents, last = path
    target = data
    for key in parents:
        target = target[key]
    target[last] = value
    comp.write_text(json.dumps(data))
    code = cli.main(["verify-axioms", "--completion", str(comp)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("input error: completion ") and "Traceback" not in captured.err


def test_every_completion_file_loads(run, tmp_path):
    from catengine import completions as cp

    comp = tmp_path / "out.json"
    loaded = 0
    for category in ("ONE", "ARROW", "DISC2"):
        for flavor in cp.FLAVORS:
            for construction in ("close", "direct"):
                argv = ["--category", category, "--flavor", flavor, "--construction", construction]
                if run("build-completion", *argv, "--out", str(comp))[0] != 0:
                    continue  # DISC2 is not weakly lex, so it has no direct regular build
                data = json.loads(comp.read_text())
                E = cp.completion_from_json(data)
                assert [M.name for M in E.objects] == [o["name"] for o in data["objects"]]
                assert (E.flavor, E.saturated, E.bounds.to_json()) == (flavor, data["saturated"], data["bounds"])
                loaded += 1
    assert loaded == 35
