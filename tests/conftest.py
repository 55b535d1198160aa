import pytest

from trusskit import (
    POINT_ELEMENT,
    DeltaDiagram,
    DeltaMap,
    FinPoset,
    LabelCategory,
    Labeling,
    Ordinal,
    TrussTower,
    point_poset,
    total_space,
)

ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance_log():
    """Recorder for per-criterion verdict lines, echoed after the run."""
    return ACCEPTANCE_LINES.append


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def terminal_labeling(carrier):
    cat = LabelCategory.terminal()
    return Labeling(
        carrier,
        cat,
        {x: "*" for x in carrier.elements},
        {cov: "*<=*" for cov in carrier.covers()},
    )


def one_wrong_entry(base, paths):
    """paths with its first related non-cover pair (x, z) set to the
    identity at z."""
    covers = set(base.covers())
    for x, z in paths:
        if x != z and (x, z) not in covers:
            return {**paths, (x, z): paths[(z, z)]}
    return paths


def build_tower(stage_data):
    """Stack diagrams over the point; stage_data is a list of (ords, arrows)
    callables taking the current carrier."""
    base = point_poset()
    stages = []
    cur = base
    for make in stage_data:
        ords, arrows = make(cur)
        d = DeltaDiagram(cur, ords, arrows)
        stages.append(d)
        cur = total_space(d).carrier
    return TrussTower(base, stages, terminal_labeling(cur))


@pytest.fixture
def chain_poset():
    return FinPoset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])


@pytest.fixture
def chain_cat(chain_poset):
    return LabelCategory.from_poset(chain_poset)


@pytest.fixture
def single_node():
    """Depth-2 truss over the point: one singular node, one wire through it,
    two regions on either side."""

    def stage1(base):
        return {POINT_ELEMENT: Ordinal(1)}, {}

    def stage2(carrier):
        ords = {x: Ordinal(1) for x in carrier.elements}
        arrows = {cov: DeltaMap.identity(1) for cov in carrier.covers()}
        return ords, arrows

    return build_tower([stage1, stage2])
