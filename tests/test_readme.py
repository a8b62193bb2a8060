"""The README's library quick start runs as printed."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start(capsys):
    namespace = {}
    exec(quick_start_code(), namespace)
    result = namespace["result"]
    assert result.status == "primal_infeasible"
    assert result.iterations == 75
    v = result.certificate.vector
    unit = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert np.allclose(v / np.linalg.norm(v), unit, rtol=0.0, atol=1e-8)
    assert capsys.readouterr().out.splitlines() == ["primal_infeasible",
                                                    "[ 0.8 -0.8]"]
