"""What callers rely on in lajoin's nine value types, all NamedTuples.

Six are plain records; ``Graph``, ``EdgeLabeling`` and ``SearchConfig``
subclass a NamedTuple to check their fields on construction.
"""

import pickle

import pytest

from lajoin.arrays import magic_rectangle
from lajoin.constructions import build_construction
from lajoin.graphs import ParameterError, build_family, join
from lajoin.labelings import export_matrix, verify_local_antimagic
from lajoin.solver import SearchConfig, confirm_theorem, exact_chi_la


def _result():
    return build_construction("path-join-null", {"m": 2, "N": 2})


# type name -> a factory of one instance
INSTANCES = {
    "Graph": lambda: join(build_family("path", 4), build_family("null", 2)),
    "EdgeLabeling": lambda: _result().labeling,
    "SearchConfig": lambda: SearchConfig(max_edges=9, target_colors=3),
    "MagicArray": lambda: magic_rectangle(2, 4),
    "ConstructionResult": _result,
    "LabelingCertificate": lambda: verify_local_antimagic(_result().graph, _result().labeling),
    "LabelingMatrix": lambda: export_matrix(_result().graph, _result().labeling),
    "SolveReport": lambda: exact_chi_la(build_family("cycle", 4)),
    "ConfirmationVerdict": lambda: confirm_theorem("cycle-join-null", {"m": 2, "n": 2}),
}

# The two types with a repr of their own: a whole graph or labeling would
# flood a message.
OWN_REPR = {
    "Graph": "Graph(n=6, q=11, family=('join', ('path', 4), ('null', 2)))",
    "EdgeLabeling": "EdgeLabeling(q=11, graph=Graph(n=6, q=11, family=('join', ('path', 4), ('null', 2))))",
}


def _hashable(x) -> bool:
    try:
        hash(x)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_value_type_contract(name):
    x = INSTANCES[name]()
    assert type(x).__name__ == name

    for field in x._fields:
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(x, field))

    twin = type(x)._make(x)  # equal fields, a new instance
    assert twin is not x and twin == x and not twin != x
    if all(map(_hashable, x)):
        assert hash(twin) == hash(x)
    assert pickle.loads(pickle.dumps(x)) == x

    fields = ", ".join(f"{field}={value!r}" for field, value in zip(x._fields, x))
    assert repr(x) == OWN_REPR.get(name, f"{name}({fields})")


@pytest.mark.parametrize("name", ["Graph", "EdgeLabeling"])
def test_cached_properties_cannot_be_overwritten(name):
    x = INSTANCES[name]()
    attr = "adjacency" if name == "Graph" else "sums"
    before = getattr(x, attr)
    with pytest.raises(AttributeError):
        setattr(x, attr, {})
    assert getattr(x, attr) is before


def test_search_config_keeps_its_defaults_and_checks():
    cfg = SearchConfig()
    assert (cfg.max_edges, cfg.target_colors, cfg.time_budget) == (12, None, 60.0)
    assert SearchConfig(5) == SearchConfig(max_edges=5)
    with pytest.raises(ParameterError, match="max_edges must be an integer, got True"):
        SearchConfig(max_edges=True)
    with pytest.raises(ParameterError, match="time budget must be positive"):
        SearchConfig(time_budget=0)


def test_verdict_json_params_are_a_copy():
    verdict = INSTANCES["ConfirmationVerdict"]()
    params = verdict.to_json()["params"]
    assert params == verdict.params and params is not verdict.params
    params["m"] = 99
    assert verdict.params == {"m": 2, "n": 2}
