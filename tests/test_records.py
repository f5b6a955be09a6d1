"""The kernel's records: the equality, hashing, mutability and defaults that
callers rely on, and a start-up that loads no record-building machinery."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from pts_kernel.corpus import Report, ReportLine
from pts_kernel.env import Decl, Def, Rewrite
from pts_kernel.parser import Directive
from pts_kernel.reduce import LoopReport, Trace, TraceStep
from pts_kernel.specs import LAMBDA_HOL, PtsSpec
from pts_kernel.terms import Const

A, B = Const("A"), Const("B")

VALUES = {
    "decl": (lambda: Decl("n", A), "name"),
    "def": (lambda: Def("n", A, B), "body"),
    "rewrite": (lambda: Rewrite("n", A, B), "rhs"),
    "directive": (lambda: Directive("axiom", "", ("*", "#"), 3, 1), "parts"),
}


@pytest.mark.parametrize("make, field", VALUES.values(), ids=VALUES.keys())
def test_value_records_compare_and_hash_by_value(make, field):
    one, two = make(), make()
    assert one is not two
    assert one == two and not one != two
    assert hash(one) == hash(two) and len({one, two}) == 1
    with pytest.raises(AttributeError):
        setattr(one, field, None)
    assert one == two


def test_value_record_equality_is_type_sensitive():
    assert Def("n", A, B) != Rewrite("n", A, B)
    assert not Def("n", A, B) == Rewrite("n", A, B)
    assert Decl("n", A) != ("n", A)
    assert Def("n", A, B) != Def("n", A, A)
    assert Directive("axiom", "", ("*", "#"), 3, 1) != Directive("axiom", "", ("*", "#"), 4, 1)


def test_loop_report_compares_by_value():
    assert LoopReport(True, 0, 2, 10).steps == 0
    assert LoopReport(True, 0, 2, 10) == LoopReport(True, 0, 2, 10, steps=0)
    assert LoopReport(True, 0, 2, 10) != LoopReport(True, 0, 2, 10, steps=2)
    assert LoopReport(False, 0, 0, 10) != LoopReport(True, 0, 0, 10)


def test_traces_compare_without_their_printers():
    step = TraceStep("delta-unfold", "n", A)
    assert step == TraceStep("delta-unfold", "n", A)
    assert step != TraceStep("delta-unfold", "n", B)
    one, two = Trace(start=A, show=str, plain=str), Trace(start=A, show=repr, plain=repr)
    assert one == two and one.stopped == two.stopped == "max-steps"
    one.steps.append(step)
    assert two.steps == [] and one != two
    assert one.displays == ["A", "A"]
    two.steps.append(TraceStep("delta-unfold", "n", A))
    assert one == two
    two.stopped = "loop"
    assert one != two


def test_pts_spec_compares_by_identity():
    twin = PtsSpec(LAMBDA_HOL.name, LAMBDA_HOL.axioms, LAMBDA_HOL.rules)
    assert twin == twin and twin != LAMBDA_HOL
    assert len({twin, LAMBDA_HOL}) == 2


def test_mutable_defaults_are_fresh_per_instance():
    one, two = Report(), Report()
    assert one.lines is not two.lines and one.judgments is not two.judgments
    assert (one.lines, one.error, one.failed_entry, one.env) == ([], None, None, None)
    assert one.judgments == []
    assert one.ok and ReportLine(True, ("x",)).show is None
    assert Trace(A, str, str).steps is not Trace(A, str, str).steps


def test_start_up_loads_no_record_machinery():
    # `dataclasses` alone pulls `inspect`, `ast` and `dis` into every `pts` start-up;
    # `json` serves only structured traces, which import it themselves, and
    # `argparse` (with `gettext`) costs a command more than reading its argv does.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, pts_kernel, pts_kernel.cli\n"
        "banned = ('dataclasses', 'inspect', 'ast', 'dis', 'json', 'argparse', 'gettext')\n"
        "print(*[m for m in banned if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert (out.returncode, out.stderr, out.stdout) == (0, "", "\n")
