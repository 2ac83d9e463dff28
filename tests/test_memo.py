"""The per-system memo of derived structure: built once, right, and freed."""

import gc
import json
import math
from random import Random

import pytest

from ergocubes import cli, joinings
from ergocubes.cubes import cube_space
from ergocubes.finite import (
    diagonal_grid,
    ergodic_decomposition,
    is_ergodic,
    is_free,
    partition_s,
    partition_t,
    random_system,
    system_to_dict,
    translation_system,
    z4_diagonal,
)
from ergocubes.joinings import host_measure, invariant_w, is_magic, measurability_check
from oracles import literal_apply, literal_cycle, literal_cycle_length


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "base",
    [z4_diagonal(), diagonal_grid(2, 3), translation_system(8, 1, (1, 0), (3, 0))],
    ids=["z4", "grid-2x3", "z8-t3"],
)
def test_extend_decides_magic_once_per_evaluated_component(monkeypatch, tmp_path, capsys, base):
    path = tmp_path / "base.json"
    path.write_text(json.dumps(system_to_dict(base)))
    decisions = _counting(monkeypatch, joinings, "is_magic")
    extensions = []

    def recording(sys):
        extensions.append(joinings.magic_extension(sys))
        return extensions[-1]

    monkeypatch.setattr(cli, "magic_extension", recording)
    assert cli.main(["extend", "--system", str(path)]) == 0
    assert "extension magic: yes" in capsys.readouterr().out
    (ext,) = extensions
    assert len(decisions) == sum(c.magic is not None for c in ext.components) >= 1


def _analyze_calls(sys):
    host_measure(sys)
    cube_space(sys)
    is_free(sys)
    is_magic(sys)
    sys.order_s(), sys.order_t()
    is_ergodic(sys)
    ergodic_decomposition(sys)
    measurability_check(sys)
    sys.orbit_grid(0)


def test_a_dropped_system_leaves_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        sys = translation_system(6, 1, (1, 0), (2, 0))
        _analyze_calls(sys)
        del sys
        assert gc.collect() == 0
        # the check can fail: a memo value that refers back to its system
        sys = z4_diagonal()
        sys.cached("self", lambda: [sys])
        del sys
        assert gc.collect() > 0
    finally:
        gc.enable()


def test_memoized_structure_matches_literal_walks():
    rng = Random(20261018)
    for _ in range(30):
        sys = random_system(rng, max_order=4, max_components=3)
        for _ in range(2):  # the second round is served by the memo
            for x in range(sys.n):
                a, b, grid = sys.orbit_grid(x)
                assert (a, b) == (literal_cycle_length(sys.S, x), literal_cycle_length(sys.T, x))
                for r in range(a):
                    for s in range(b):
                        assert grid[r][s] == literal_apply(sys, r, s, x)
            for perm, order, part in ((sys.S, sys.order_s(), partition_s(sys)), (sys.T, sys.order_t(), partition_t(sys))):
                assert order == math.lcm(*(literal_cycle_length(perm, x) for x in range(sys.n)))
                assert sorted(part.blocks()) == sorted({tuple(sorted(literal_cycle(perm, x))) for x in range(sys.n)})
        assert sys.orbit_grid(0) is sys.orbit_grid(0)
        assert partition_s(sys) is partition_s(sys)
        assert invariant_w(sys) is invariant_w(sys)
        assert host_measure(sys) is host_measure(sys)


@pytest.mark.parametrize("kind", ["fourfold", "windowed_sn"])
def test_average_references_leave_the_quadruples_unbuilt(monkeypatch, capsys, kind):
    built = []
    original = joinings._build_host_measure

    def recording(sys):
        built.append(original(sys))
        return built[-1]

    monkeypatch.setattr(joinings, "_build_host_measure", recording)
    argv = ["average", "--builtin", "grid-2x3", "--kind", kind, "--observable", "1,-1/3,0,1/2,5/7,-2", "--schedule", "1,6"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith("N,value,reference,abs_error\n")
    (hm,) = built
    assert "mu_st" not in vars(hm)
    first = hm.mu_st
    assert hm.mu_st is first and vars(hm)["mu_st"] is first
