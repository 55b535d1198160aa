"""Outputs do not depend on the interpreter's hash seed or on object addresses.

Strata and ordinals are interned and hash by identity, so the iteration
order of a set of them changes from one process to the next.  Canonical
JSON and SVG must not: two fresh interpreters with different
PYTHONHASHSEED values have to print the same bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import json
from trusskit import compose_bordisms, dumps, layout_2truss, pack, scene_to_svg
from trusskit.oracles import bordism_family, tower_family

def size(t):
    return len(t.top.elements)

towers = tower_family(0, max_ordinal=1)
deep = sorted((t for t in towers if t.depth == 3), key=size)
flat = max((t for t in towers if t.depth == 2), key=size)
bordisms = [b for b in bordism_family(0) if b.depth == 2]
b1, b2 = max(
    ((b1, b2) for b1 in bordisms for b2 in bordisms if b1.end(1) == b2.end(0)),
    key=lambda pair: size(pair[0]) + size(pair[1]),
)
out = {
    "depth-3 tower": dumps(deep[-1]),
    "bordism composite": dumps(compose_bordisms(b1, b2)),
    "pack": dumps(pack(deep[-2])),
    "depth-2 svg": scene_to_svg(layout_2truss(flat)),
}
print(json.dumps(out))
"""


def _outputs(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_outputs_are_identical_across_hash_seeds():
    first = _outputs("1")
    second = _outputs("2718281")
    assert set(first) == {"depth-3 tower", "bordism composite", "pack", "depth-2 svg"}
    for name, text in first.items():
        assert text, name
        assert second[name] == text, f"{name} differs between interpreters"
