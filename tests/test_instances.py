import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixpc import (
    CcflClient,
    CcflInstance,
    CoveringRow,
    OmpcInstance,
    PackingSystem,
    ParseError,
    emit_instance,
    gen_random_ccfl,
    gen_random_ompc,
    parse_instance,
)


def test_ompc_roundtrip_bytes_stable():
    inst = gen_random_ompc(4, 6, 5, 0.6, (1.0, 3.0), seed=11)
    text = emit_instance(inst)
    back = parse_instance(text)
    assert isinstance(back, OmpcInstance)
    assert emit_instance(back) == text
    assert np.array_equal(back.system.matrix, inst.system.matrix)
    assert len(back.rows) == len(inst.rows)
    for a, b in zip(back.rows, inst.rows):
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.values, b.values)


def test_ccfl_roundtrip_bytes_stable():
    inst = gen_random_ccfl(3, 4, seed=8, capacity_range=(1.0, 2.0))
    text = emit_instance(inst)
    back = parse_instance(text)
    assert isinstance(back, CcflInstance)
    assert emit_instance(back) == text
    assert np.array_equal(back.fixed_charge, inst.fixed_charge)
    assert np.array_equal(back.capacity, inst.capacity)
    for a, b in zip(back.clients, inst.clients):
        assert np.array_equal(a.facilities, b.facilities)
        assert np.array_equal(a.raw_demand, b.raw_demand)
        assert np.array_equal(a.demand, b.demand)  # normalization reapplied
        assert np.array_equal(a.assign_cost, b.assign_cost)


def test_demand_normalized_by_capacity_on_load():
    inst = gen_random_ccfl(3, 4, seed=8, capacity_range=(2.0, 2.0))
    assert np.allclose(inst.clients[0].demand, inst.clients[0].raw_demand / 2.0)
    back = parse_instance(emit_instance(inst))
    assert np.allclose(back.clients[0].demand, back.clients[0].raw_demand / 2.0)


def test_parse_reports_line_numbers():
    inst = gen_random_ompc(3, 4, 3, 0.7, (1.0, 2.0), seed=2)
    lines = emit_instance(inst).splitlines()
    lines[3] = "n"  # truncated field
    with pytest.raises(ParseError) as err:
        parse_instance("\n".join(lines))
    assert "line 4" in str(err.value)


def test_parse_rejects_missing_sections():
    with pytest.raises(ParseError):
        parse_instance("mixpc-instance v1\nkind ompc\nm 2\n")
    with pytest.raises(ParseError):
        parse_instance("not an instance\n")


def test_parse_rejects_bad_kind_and_ranges():
    text = "mixpc-instance v1\nkind banana\nm 2\nn 2\nend\n"
    with pytest.raises(ParseError):
        parse_instance(text)
    inst = gen_random_ompc(3, 4, 3, 0.7, (1.0, 2.0), seed=2)
    bad = emit_instance(inst).replace("packing", "packing_", 1)
    with pytest.raises(ParseError):
        parse_instance(bad)


def test_generator_determinism():
    a = emit_instance(gen_random_ompc(5, 7, 6, 0.5, (1.0, 4.0), seed=33))
    b = emit_instance(gen_random_ompc(5, 7, 6, 0.5, (1.0, 4.0), seed=33))
    assert a == b
    c = emit_instance(gen_random_ompc(5, 7, 6, 0.5, (1.0, 4.0), seed=34))
    assert a != c
    d = emit_instance(gen_random_ccfl(4, 5, seed=33))
    e = emit_instance(gen_random_ccfl(4, 5, seed=33))
    assert d == e


def test_generator_structure_guarantees():
    inst = gen_random_ompc(6, 9, 7, 0.2, (1.0, 4.0), seed=5)
    p = inst.system.matrix
    assert np.all((p > 0).sum(axis=0) >= 1)  # every variable packed
    for row in inst.rows:
        assert row.nnz >= 1
    assert np.all(p[p > 0] >= 1.0) and np.all(p[p > 0] <= 4.0)


def test_generator_all_ones_degenerate_range():
    inst = gen_random_ompc(3, 4, 2, 1.0, (1.0, 1.0), seed=1)
    p = inst.system.matrix
    assert np.array_equal(p, np.ones_like(p))
    for row in inst.rows:
        assert np.array_equal(row.values, np.ones(row.nnz))
        assert row.nnz == 4


def test_generator_stats_match_recomputation():
    inst = gen_random_ompc(5, 6, 6, 0.5, (1.0, 4.0), seed=21)
    back = parse_instance(emit_instance(inst))
    pos = back.system.matrix[back.system.matrix > 0]
    assert back.system.rho == pytest.approx(pos.max() / pos.min())
    cmax = max(r.max_coeff for r in back.rows)
    cmin = min(r.min_coeff for r in back.rows)
    assert back.kappa == pytest.approx(cmax / cmin)
    nnz_cov = max(r.nnz for r in back.rows)
    assert back.d == max(back.system.d, nnz_cov)


def test_generator_parameter_validation():
    with pytest.raises(ValueError):
        gen_random_ompc(3, 4, 2, 0.0, (1.0, 2.0), seed=1)
    with pytest.raises(ValueError):
        gen_random_ompc(3, 4, 2, 0.5, (0.0, 2.0), seed=1)
    with pytest.raises(ValueError):
        gen_random_ompc(3, 4, 2, 0.5, (3.0, 2.0), seed=1)
    with pytest.raises(ValueError):
        gen_random_ccfl(1, 4, seed=1)


def test_adversary_transcript_replays_identically():
    from mixpc import MpcResponder, OnlineOmpcSolver, tree_adversary

    res = tree_adversary(4, 4, MpcResponder)
    inst = OmpcInstance(res.system, res.transcript)
    text = emit_instance(inst)
    back = parse_instance(text)
    solver = OnlineOmpcSolver(back.system)
    for row in back.rows:
        solver.offer(row)
    x = solver.x_total
    assert np.allclose(x, res.x_final, rtol=0, atol=0)


def test_instance_statistics_are_cached_and_equal_their_formulas():
    for seed in (1, 4, 11):
        inst = gen_random_ompc(5, 8, 7, 0.4, (0.5, 3.0), seed=seed)
        packing_support = int(np.count_nonzero(inst.system.matrix, axis=1).max())
        d = max(packing_support, max(r.indices.size for r in inst.rows))
        values = np.concatenate([r.values for r in inst.rows])
        assert inst.d == d
        assert inst.kappa == float(values.max()) / float(values.min())
        assert {"d", "kappa"} <= vars(inst).keys()  # held after first use

        cc = gen_random_ccfl(4, 6, seed=seed, capacity_range=(1.0, 2.0))
        spreads = [1.0]
        for cl in cc.clients:
            cost = cc.fixed_charge[cl.facilities] + cl.demand + cl.assign_cost
            spreads.append(float(cost.max() / cost.min()))
        assert cc.rho == max(spreads)
        assert "rho" in vars(cc)


# -- covering-row parsing ----------------------------------------------------

# Lines 1-7 are the header; the covering rows start at line 8.
_OMPC_HEAD = (
    "mixpc-instance v1\nkind ompc\nm 1\nn {n}\npacking 1\n0 0 1.0\ncovering {rows}\n"
)


def _ompc_doc(rows: list[str], n: int = 3) -> str:
    return _OMPC_HEAD.format(n=n, rows=len(rows)) + "\n".join(rows) + "\nend\n"


@pytest.mark.parametrize(
    "row, message",
    [
        ("1:2:3 4", "expected 'j:c', got '1:2:3'"),
        ("1:2 3 :4", "expected 'j:c', got '3'"),  # one ':' per token, not per line
        ("0:1.0 # c", "expected 'j:c', got '#'"),
        ("1:", "bad entry '1:'"),
        (":2", "bad entry ':2'"),
        ("a:1.0", "bad entry 'a:1.0'"),
        ("1:x", "bad entry '1:x'"),
        ("0:1.0 a:1 2", "bad entry 'a:1'"),  # the first bad token is named
        ("1__0:1.0", "bad entry '1__0:1.0'"),  # Python's int grammar
        ("0x1:1.0", "bad entry '0x1:1.0'"),
        ("1:1__0", "bad entry '1:1__0'"),  # Python's float grammar
        ("1:0x1p3", "bad entry '1:0x1p3'"),
        ("0:1.0 2:1.0 0:2.0", "covering row has duplicate column indices"),
        ("-1:1.0", "covering row indices must be nonnegative"),
        ("1:nan", "covering coefficients must be finite and positive"),
        ("1:0", "covering coefficients must be finite and positive"),
        ("1:inf", "covering coefficients must be finite and positive"),
        ("3:1.0", "covering row references unknown variable"),
        ("0:1.0 9223372036854775808:1.0", "covering row references unknown variable"),
    ],
)
def test_bad_covering_row_names_its_own_line(row, message):
    with pytest.raises(ParseError) as err:
        parse_instance(_ompc_doc(["0:1.0", row, "1:2.0 2:0.5"]))
    assert err.value.lineno == 9
    assert str(err.value) == f"line 9: {message}"


# Lines 1-5 are the header; the first packing triplet is on line 6.
_PACKING_HEAD = "mixpc-instance v1\nkind ompc\nm 2\nn 2\npacking {count}\n"


@pytest.mark.parametrize(
    "triplets, lineno, message",
    [
        (["0 0 nan"], 6, "packing coefficients must be finite"),
        (["0 0 inf"], 6, "packing coefficients must be finite"),
        (["1 1 1.0", "0 0 -inf"], 7, "packing coefficients must be finite"),
        (["0 0 -1.0"], 6, "packing coefficients must be nonnegative"),
        (["0 0 1.0", "1 1 1.0", "0 0 2.0"], 8, "duplicate packing entry"),
        (["0 1 0.0", "0 1 1.0"], 7, "duplicate packing entry"),
    ],
)
def test_bad_packing_triplet_names_its_own_line(triplets, lineno, message):
    doc = (
        _PACKING_HEAD.format(count=len(triplets))
        + "\n".join(triplets)
        + "\ncovering 1\n0:1.0\nend\n"
    )
    with pytest.raises(ParseError) as err:
        parse_instance(doc)
    assert err.value.lineno == lineno
    assert str(err.value) == f"line {lineno}: {message}"


# Lines 1-5 are the header; facility 0 is on line 6, facility 1 on line 7.
_CCFL_DOC = (
    "mixpc-instance v1\nkind ccfl\nm 2\nn 2\nfacilities 2\n{f0}\n{f1}\n"
    "clients 2\n0:1.0:0.5 1:1.0:0.5\n0:2.0:0.5\nend\n"
)


@pytest.mark.parametrize(
    "f0, f1, lineno, message",
    [
        ("1.0 0.0", "1.0 1.0", 6, "fixed charges must be >= 0 and capacities > 0"),
        ("1.0 -1.0", "1.0 1.0", 6, "fixed charges must be >= 0 and capacities > 0"),
        ("-1.0 1.0", "1.0 1.0", 6, "fixed charges must be >= 0 and capacities > 0"),
        ("-inf 1.0", "1.0 1.0", 6, "fixed charges must be >= 0 and capacities > 0"),
        ("1.0 1.0", "nan 1.0", 7, "facility parameters must be finite"),
        ("nan 1.0", "1.0 1.0", 6, "facility parameters must be finite"),
        ("1.0 nan", "1.0 1.0", 6, "facility parameters must be finite"),
        ("inf 1.0", "1.0 1.0", 6, "facility parameters must be finite"),
        ("1.0 inf", "1.0 1.0", 6, "facility parameters must be finite"),
    ],
)
def test_bad_facility_line_names_its_own_line(f0, f1, lineno, message):
    with pytest.raises(ParseError) as err:
        parse_instance(_CCFL_DOC.format(f0=f0, f1=f1))
    assert err.value.lineno == lineno
    assert str(err.value) == f"line {lineno}: {message}"


@pytest.mark.parametrize(
    "f0, c0, message",
    [
        # p / u beyond floats fails the client's finite check, with no warning
        ("1.0 1e-300", "0:1e300:0.0 1:1.0:0.0", "client parameters must be finite"),
        ("1.0 1.0", "0:1.0:0.0 2:1.0:0.0", "client references unknown facility"),
        ("1.0 1.0", "-1:1.0:0.0 1:1.0:0.0", "client references unknown facility"),
        # an id beyond int64 names no facility either
        (
            "1.0 1.0",
            "0:1.0:0.0 9223372036854775808:1.0:0.0",
            "client references unknown facility",
        ),
    ],
)
def test_bad_client_line_names_its_own_line(f0, c0, message):
    doc = _CCFL_DOC.format(f0=f0, f1="1.0 1.0").replace("0:1.0:0.5 1:1.0:0.5", c0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError) as err:
            parse_instance(doc)
    assert err.value.lineno == 9
    assert str(err.value) == f"line 9: {message}"


@pytest.mark.parametrize(
    "capacity, demand, message",
    [
        (1e-300, 1e300, "client parameters must be finite"),
        (0.0, 1.0, "fixed charges must be >= 0 and capacities > 0"),
    ],
)
def test_generated_demand_over_capacity_is_rejected_without_warning(
    capacity, demand, message
):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            gen_random_ccfl(
                2,
                2,
                seed=0,
                capacity_range=(capacity, capacity),
                demand_range=(demand, demand),
            )
    assert str(err.value) == message


def test_ccfl_doc_with_good_facilities_parses():
    inst = parse_instance(_CCFL_DOC.format(f0="0.0 2.0", f1="1.5 1.0"))
    assert inst.fixed_charge.tolist() == [0.0, 1.5]
    assert inst.capacity.tolist() == [2.0, 1.0]


def test_instance_rejects_a_negative_facility_id():
    def client(fac):
        k = len(fac)
        return CcflClient(np.array(fac), np.ones(k), np.ones(k), np.ones(3))

    CcflInstance(np.ones(2), np.ones(2), (client([0, 1]), client([1])))
    with pytest.raises(ValueError, match="^client references unknown facility$"):
        CcflInstance(np.ones(2), np.ones(2), (client([-1, 0]), client([1])))
    with pytest.raises(ValueError, match="^client references unknown facility$"):
        CcflInstance(np.ones(2), np.ones(2), (client([0]), client([2])))


def test_instance_rejects_a_row_beyond_n():
    system = PackingSystem(np.ones((1, 3)))
    OmpcInstance(system, (CoveringRow([2, 0], [1.0, 1.0]),))
    with pytest.raises(ValueError, match="unknown variable"):
        OmpcInstance(system, (CoveringRow([3, 0], [1.0, 1.0]),))


def test_covering_row_keeps_python_number_grammar_and_sorts():
    tokens = [
        ("+1", "1_0.5"),
        ("0_2", "+.5e-3"),
        ("\u0661\u0662", "\u0662.\u0665"),  # Arabic-Indic digits
        ("\uff10", "1E2"),  # a full-width zero
    ]
    line = " ".join(f"{j}:{c}" for j, c in tokens)
    inst = parse_instance(_ompc_doc([line, "2:0.25 0:4.0\t1:1.5"], n=20))
    expected = sorted((int(j), float(c)) for j, c in tokens)
    assert inst.rows[0].indices.tolist() == [j for j, _ in expected] == [0, 1, 2, 12]
    assert inst.rows[0].values.tolist() == [c for _, c in expected]
    assert inst.rows[1].indices.tolist() == [0, 1, 2]
    assert inst.rows[1].values.tolist() == [4.0, 1.5, 0.25]


_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _small_ompc(draw) -> OmpcInstance:
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    cells = draw(st.lists(st.none() | _positive, min_size=m * n, max_size=m * n))
    if all(c is None for c in cells):
        cells[draw(st.integers(0, m * n - 1))] = draw(_positive)
    matrix = np.array([0.0 if c is None else c for c in cells]).reshape(m, n)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        idx = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
        val = draw(st.lists(_positive, min_size=len(idx), max_size=len(idx)))
        rows.append(CoveringRow(np.array(idx), np.array(val)))
    return OmpcInstance(PackingSystem(matrix), tuple(rows))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_small_ompc())
def test_ompc_text_round_trip_is_exact(inst):
    text = emit_instance(inst)
    back = parse_instance(text)
    assert emit_instance(back) == text
    assert back.system.matrix.tobytes() == inst.system.matrix.tobytes()
    assert len(back.rows) == len(inst.rows)
    for a, b in zip(back.rows, inst.rows):
        assert a.indices.tobytes() == b.indices.tobytes()
        assert a.values.tobytes() == b.values.tobytes()


# -- header counts -----------------------------------------------------------


@pytest.mark.parametrize(
    "doc, lineno, message",
    [
        ("kind ompc\nm 0\nn 2\n", 3, "'m' must be at least 1, got 0"),
        ("kind ompc\nm -3\nn 2\n", 3, "'m' must be at least 1, got -3"),
        ("kind ccfl\nm 2\nn 0\n", 4, "'n' must be at least 2, got 0"),
        # an assignment instance needs 2 facilities and 2 clients
        (
            "kind ccfl\nm 1\nn 2\nfacilities 1\n1.0 1.0\nclients 2\n"
            "0:1.0:0.0\n0:1.0:0.0\nend\n",
            3,
            "'m' must be at least 2, got 1",
        ),
        (
            "kind ccfl\nm 2\nn 1\nfacilities 2\n1.0 1.0\n1.0 1.0\nclients 1\n"
            "0:1.0:0.0 1:1.0:0.0\nend\n",
            4,
            "'n' must be at least 2, got 1",
        ),
        (
            "kind ompc\nm 2\nn 2\npacking -5\ncovering 1\n0:1.0\nend\n",
            5,
            "'packing' must be at least 0, got -5",
        ),
        (
            "kind ompc\nm 1\nn 1\npacking 1\n0 0 1.0\ncovering -1\nend\n",
            7,
            "'covering' must be at least 0, got -1",
        ),
        (
            "kind ccfl\nm 2\nn 2\nfacilities -2\n",
            5,
            "'facilities' must be at least 0, got -2",
        ),
        (
            "kind ccfl\nm 2\nn 2\nfacilities 2\n1.0 1.0\n1.0 1.0\nclients -1\nend\n",
            8,
            "'clients' must be at least 0, got -1",
        ),
        # never allocatable: 10^14 float64 entries
        (
            "kind ompc\nm 10000000\nn 10000000\npacking 0\n",
            4,
            "cannot allocate a 10000000x10000000 packing matrix",
        ),
        # a facility count beyond the text ends at the first missing line
        (
            "kind ccfl\nm 10000000000000\nn 2\nfacilities 10000000000000\n1.0 1.0\n",
            6,
            "missing facility line",
        ),
    ],
)
def test_bad_header_count_names_its_own_line(doc, lineno, message):
    with pytest.raises(ParseError) as err:
        parse_instance("mixpc-instance v1\n" + doc)
    assert str(err.value) == f"line {lineno}: {message}"
