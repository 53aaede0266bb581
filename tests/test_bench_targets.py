"""The traced benchmark run wraps the qcs functions listed in
perfbench/spans.py; each of them must still exist where it is listed."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module_name, attr, _, _ in spans.TARGETS:
        home = importlib.import_module("qcs." + module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            found = method in vars(getattr(home, cls_name, object))
        else:
            found = callable(getattr(home, attr, None))
        if not found:
            missing.append(f"qcs.{module_name}.{attr}")
    assert len(spans.TARGETS) > 0 and not missing
