"""Scenario-file parsing: grammar, diagnostics, strictness."""

import ast
import inspect
import re
import textwrap
from pathlib import Path
from string import Template

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qergo import ConfigError, parse_config_text
from qergo.config import (
    BornSamplingExperiment,
    OffsetAverageExperiment,
    QGridExperiment,
    SequentialExperiment,
    SubTauExperiment,
    TrajectoryExperiment,
    _EXPERIMENT_KINDS,
    _Entry,
    _parse_complex_token,
    load_config,
)
from qergo.partition import SchedulerSpec

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


MINIMAL = """
system {
  dimension = 2
  state = 1, 0
  hamiltonian {
    row = 0, 0.5
    row = 0.5, 0
  }
}

csco {
  id = sz
  basis {
    row = 1, 0
    row = 0, 1
  }
  labels = (0), (1)
  eigenvalues = (1), (-1)
}

experiment {
  kind = trajectory
  windows = 3
}
"""


def test_minimal_text_parses():
    cfg = parse_config_text(MINIMAL)
    assert cfg.scenario.state0.amplitudes.shape == (2,)
    assert len(cfg.scenario.csets) == 1 and cfg.scenario.csets[0].id == "sz"
    assert cfg.scenario.schedulers["sz"].kind == "contiguous"  # default when omitted
    (exp,) = cfg.experiments
    assert isinstance(exp, TrajectoryExperiment)
    assert exp.windows == 3
    assert exp.name == "trajectory-0"  # default id is kind-ordinal
    assert cfg.output_dir == "out"


def test_scenario_construction_runs():
    cfg = parse_config_text(MINIMAL)
    traj = cfg.scenario.build_trajectory("sz", 2)
    assert traj.windows_covered == 2


def test_sha256_matches_text():
    import hashlib

    cfg = parse_config_text(MINIMAL)
    assert cfg.sha256 == hashlib.sha256(MINIMAL.encode()).hexdigest()


@pytest.mark.parametrize(
    "literal,expected",
    [
        ("3", 3 + 0j),
        ("-2.5", -2.5 + 0j),
        ("1+2i", 1 + 2j),
        ("1-2i", 1 - 2j),
        ("0.5i", 0.5j),
        ("-0.5i", -0.5j),
        ("1e-3+2e-4i", 1e-3 + 2e-4j),
        (".5", 0.5 + 0j),
    ],
)
def test_complex_literals(literal, expected):
    text = MINIMAL.replace("state = 1, 0", f"state = {literal}, 0", 1)
    cfg = parse_config_text(text)
    amp = complex(cfg.scenario.state0.amplitudes[0]) * abs(expected)  # undo normalization
    assert amp == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("bad", ["1+", "i", "2j", "1 + 2i", "--3", "1+2i+3i"])
def test_bad_complex_literals_rejected(bad):
    text = MINIMAL.replace("state = 1, 0", f"state = {bad}, 0", 1)
    with pytest.raises(ConfigError, match="line"):
        parse_config_text(text)


def test_unknown_key_rejected_with_line_number():
    text = MINIMAL.replace("  dimension = 2", "  dimension = 2\n  typo_key = 5", 1)
    with pytest.raises(ConfigError, match=r"line 4.*typo_key"):
        parse_config_text(text)


def test_unknown_block_rejected():
    with pytest.raises(ConfigError, match="mystery"):
        parse_config_text(MINIMAL + "\nmystery {\n}\n")


def test_unmatched_close_rejected():
    with pytest.raises(ConfigError, match="unmatched"):
        parse_config_text("}\n")


def test_unclosed_block_rejected():
    with pytest.raises(ConfigError, match="unclosed"):
        parse_config_text("system {\n  dimension = 2\n")


def test_garbage_line_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("what is this\n")


def test_duplicate_key_rejected():
    text = MINIMAL.replace("  dimension = 2", "  dimension = 2\n  dimension = 2", 1)
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text(text)


def test_missing_required_key_rejected():
    with pytest.raises(ConfigError, match="missing key 'dimension'"):
        parse_config_text(MINIMAL.replace("  dimension = 2\n", ""))


def test_row_count_mismatch_rejected():
    with pytest.raises(ConfigError, match="2 'row' entries"):
        parse_config_text(MINIMAL.replace("    row = 0, 0.5\n", "", 1))


def test_row_width_mismatch_rejected():
    with pytest.raises(ConfigError, match="expected 2"):
        parse_config_text(MINIMAL.replace("row = 0, 0.5", "row = 0, 0.5, 1", 1))


def test_state_length_mismatch_rejected():
    with pytest.raises(ConfigError, match="amplitudes"):
        parse_config_text(MINIMAL.replace("state = 1, 0", "state = 1, 0, 0", 1))


def test_zero_state_rejected():
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL.replace("state = 1, 0", "state = 0, 0", 1))


def test_non_hermitian_hamiltonian_rejected():
    text = MINIMAL.replace("row = 0, 0.5", "row = 0, 1i", 1)
    with pytest.raises(ConfigError, match="[Hh]ermitian"):
        parse_config_text(text)


def test_non_unitary_basis_rejected():
    text = MINIMAL.replace("row = 1, 0\n    row = 0, 1", "row = 1, 1\n    row = 0, 1")
    with pytest.raises(ConfigError):
        parse_config_text(text)


def test_multi_index_labels():
    text = MINIMAL.replace("labels = (0), (1)", "labels = (0,1), (1,0)")
    text = text.replace("eigenvalues = (1), (-1)", "eigenvalues = (1.5, 2), (-1.5, -2)")
    cfg = parse_config_text(text)
    assert cfg.scenario.csets[0].labels == ((0, 1), (1, 0))
    assert cfg.scenario.csets[0].eigenvalues == ((1.5, 2.0), (-1.5, -2.0))


@pytest.mark.parametrize("bad", ["0, 1", "(0), 1", "()", "(0) (1) junk"])
def test_malformed_tuples_rejected(bad):
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL.replace("labels = (0), (1)", f"labels = {bad}"))


# Every list key, each slot holding a value that parses; a case swaps one slot.
LIST_SLOTS_TEXT = Template("""\
system {
  dimension = 2
  state = $state
  hamiltonian {
    row = $row1
    row = $row2
  }
}
csco {
  id = cb
  basis {
    row = 1, 0
    row = 0, 1
  }
  labels = $labels
  eigenvalues = $eigenvalues
}
experiment {
  kind = sequential-measurement
  runs = 1
  seed = 0
  step = $step
}
""")
LIST_SLOTS = {
    "state": "1, 0",
    "row1": "1, 0",
    "row2": "0, 0.5",
    "labels": "(0), (1)",
    "eigenvalues": "(0), (1)",
    "step": "cb, 0.5",
}
COMPLEX_LIST_CASES = ["1, , 0", "1, 0,", ", 0, 0.5"]
TUPLE_LIST_CASES = ["(0), , (1)", "(0) (1)", "(0,), (1)", "(), (1)"]
EMPTY_ITEM_CASES = (
    [("state", v) for v in COMPLEX_LIST_CASES]
    + [("row1", "1, , 0"), ("row1", "1, 0,"), ("row2", ", 0, 0.5")]
    + [(slot, v) for slot in ("labels", "eigenvalues") for v in TUPLE_LIST_CASES]
    + [("step", v) for v in ("cb,", "cb, 0.5,", ", cb, 0.5", "cb, , 0.5")]
)


def test_list_slots_parse_as_written():
    (exp,) = parse_config_text(LIST_SLOTS_TEXT.substitute(LIST_SLOTS)).experiments
    assert exp.steps == (("cb", 0.5),)


@pytest.mark.parametrize("slot,value", EMPTY_ITEM_CASES)
def test_list_with_an_empty_or_unseparated_item_rejected_at_its_line(slot, value):
    line = next(
        i for i, ln in enumerate(LIST_SLOTS_TEXT.template.splitlines(), start=1) if f"${slot}" in ln
    )
    with pytest.raises(ConfigError, match=f"^line {line}: ") as caught:
        parse_config_text(LIST_SLOTS_TEXT.substitute(LIST_SLOTS, **{slot: value}))
    assert caught.value.line == line


_REFERENCE_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_REFERENCE_COMPLEX_RE = re.compile(
    rf"(?:(?P<real>{_REFERENCE_NUM})(?P<imag>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i"
    rf"|(?P<imag_only>{_REFERENCE_NUM})i"
    rf"|(?P<real_only>{_REFERENCE_NUM}))"
)


def _reference_complex(token: str) -> complex | None:
    """The three-branch conversion complex literals were once read with; None if refused."""
    m = _REFERENCE_COMPLEX_RE.fullmatch(token)
    if not m:
        return None
    if m.group("real_only") is not None:
        return complex(float(m.group("real_only")), 0.0)
    if m.group("imag_only") is not None:
        return complex(0.0, float(m.group("imag_only")))
    return complex(float(m.group("real")), float(m.group("imag")))


def _assert_reads_as_reference(token: str):
    try:
        got = _parse_complex_token(token, _Entry(key="state", value=token, line=1))
    except ConfigError:
        got = None
    want = _reference_complex(token)
    if want is None or got is None:
        assert got is want, token
    else:
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), token


def _bundled_complex_tokens() -> list[str]:
    tokens = []
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        for raw in path.read_text().splitlines():
            m = re.fullmatch(r"\s*(?:state|row)\s*=(.*)", raw.split("#", 1)[0])
            if m:
                tokens += [t.strip() for t in m.group(1).split(",")]
    return tokens


def test_bundled_complex_literals_read_as_reference():
    tokens = _bundled_complex_tokens()
    assert len(tokens) > 50
    for token in tokens:
        _assert_reads_as_reference(token)


@pytest.mark.parametrize(
    "token",
    ["-0", "-0i", "1-0i", "-0-0i", ".5", "5.", "1e308", "4.9e-324i", "1.5e-3-2.5E+4i", "1e999i"],
)
def test_edge_complex_literals_read_as_reference(token):
    _assert_reads_as_reference(token)


@settings(max_examples=400, deadline=None)
@given(
    st.from_regex(_REFERENCE_COMPLEX_RE, fullmatch=True)
    | st.text(alphabet="0123456789.eE+-ij", max_size=12)
)
def test_complex_literals_read_as_reference(token):
    _assert_reads_as_reference(token)


def test_unknown_scheduler_kind_rejected():
    text = MINIMAL.replace(
        "  labels = (0), (1)",
        "  labels = (0), (1)\n  scheduler {\n    kind = banana\n  }",
    )
    with pytest.raises(ConfigError, match="banana"):
        parse_config_text(text)


def test_scheduler_settings_applied():
    text = MINIMAL.replace(
        "  labels = (0), (1)",
        "  labels = (0), (1)\n  scheduler {\n    kind = seeded-random\n"
        "    max_subintervals = 3\n    seed = 9\n  }",
    )
    spec = parse_config_text(text).scenario.schedulers["sz"]
    assert (spec.kind, spec.max_subintervals, spec.seed) == ("seeded-random", 3, 9)


def test_unknown_experiment_kind_rejected():
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        parse_config_text(MINIMAL.replace("kind = trajectory", "kind = teleport"))


def test_experiment_unknown_csco_rejected():
    text = MINIMAL.replace("kind = trajectory", "kind = trajectory\n  csco = nope")
    with pytest.raises(ConfigError, match="unknown csco id 'nope'"):
        parse_config_text(text)


def test_duplicate_csco_id_rejected():
    block = MINIMAL[MINIMAL.index("csco {") : MINIMAL.index("experiment {")]
    with pytest.raises(ConfigError, match="duplicate csco id"):
        parse_config_text(MINIMAL.replace("experiment {", block + "experiment {", 1))


def test_duplicate_experiment_ids_rejected():
    extra = "\nexperiment {\n  kind = trajectory\n  id = same\n  windows = 1\n}\n"
    with pytest.raises(ConfigError, match="unique"):
        parse_config_text(MINIMAL.replace("kind = trajectory", "kind = trajectory\n  id = same") + extra)


def test_sequential_step_parsing():
    text = MINIMAL.replace(
        "experiment {\n  kind = trajectory\n  windows = 3\n}",
        "experiment {\n  kind = sequential-measurement\n  runs = 10\n  seed = 1\n"
        "  step = sz, 0.5\n  step = sz, 1.5\n}",
    )
    (exp,) = parse_config_text(text).experiments
    assert isinstance(exp, SequentialExperiment)
    assert exp.steps == (("sz", 0.5), ("sz", 1.5))


def test_sequential_bad_step_rejected():
    text = MINIMAL.replace(
        "kind = trajectory\n  windows = 3",
        "kind = sequential-measurement\n  runs = 10\n  seed = 1\n  step = sz",
    )
    with pytest.raises(ConfigError, match="step"):
        parse_config_text(text)


def test_born_sampling_defaults():
    text = MINIMAL.replace(
        "kind = trajectory\n  windows = 3",
        "kind = born-sampling\n  windows = 2\n  samples = 50\n  seed = 4",
    )
    (exp,) = parse_config_text(text).experiments
    assert isinstance(exp, BornSamplingExperiment)
    assert exp.window == 0 and exp.samples == 50


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\n" + MINIMAL.replace(
        "dimension = 2", "dimension = 2  # trailing comment"
    )
    assert parse_config_text(text).scenario.state0.amplitudes.shape == (2,)


def test_bundled_configs_parse():
    paths = sorted(CONFIG_DIR.glob("*.cfg"))
    assert len(paths) >= 5
    for p in paths:
        cfg = load_config(p)
        assert cfg.experiments, p.name
        assert cfg.base_dir == CONFIG_DIR


def test_load_config_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "nope.cfg")


def test_basis_columns_are_eigenvectors():
    text = MINIMAL.replace(
        "row = 1, 0\n    row = 0, 1",
        "row = 0.7071067811865476, 0.7071067811865476\n"
        "    row = 0.7071067811865476, -0.7071067811865476",
    )
    cs = parse_config_text(text).scenario.csets[0]
    v = cs.basis_vector(1)
    assert np.allclose(v, np.array([1.0, -1.0]) / np.sqrt(2.0))


# Every experiment kind, as (kind, class, required keys, optional keys, what
# the parser fills in when the optional keys are left out).  Values are
# config text; the block is parsed inside MINIMAL's system and csco.
EXPERIMENT_KINDS = [
    ("trajectory", TrajectoryExperiment, {"windows": "3"}, {"csco": "sz"}, {"cset_id": None}),
    (
        "born-sampling",
        BornSamplingExperiment,
        {"windows": "3", "samples": "50", "seed": "4"},
        {"csco": "sz", "window": "1"},
        {"cset_id": None, "window": 0},
    ),
    (
        "offset-average",
        OffsetAverageExperiment,
        {"windows": "3", "alpha": "1.5"},
        {"csco": "sz", "member": "0"},
        {"cset_id": None, "member": 0},
    ),
    (
        "sub-tau",
        SubTauExperiment,
        {"windows": "3", "delta": "0.25", "pairs": "10", "seed": "2"},
        {"csco": "sz"},
        {"cset_id": None},
    ),
    (
        "sequential-measurement",
        SequentialExperiment,
        {"runs": "10", "seed": "1", "step": "sz, 0.5"},
        {},
        {},
    ),
    (
        "qgrid",
        QGridExperiment,
        {"grid_file": "grid.txt", "planck_step": "0.1", "compton_wavelength": "1.0", "center_cell": "2"},
        {"window_index": "1"},
        {"window_index": 0, "scheduler": SchedulerSpec()},
    ),
]
INT_KEYS = {"windows", "samples", "seed", "window", "member", "pairs", "runs", "center_cell",
            "window_index", "max_subintervals"}
FLOAT_KEYS = {"alpha", "delta", "planck_step", "compton_wavelength", "offset"}
ALL_EXPERIMENT_KEYS = {k for _, _, req, opt, _ in EXPERIMENT_KINDS for k in (*req, *opt)}
KIND_IDS = [row[0] for row in EXPERIMENT_KINDS]


def _experiment_text(kind: str, entries: dict, extra: str = "") -> str:
    """MINIMAL with its experiment replaced by one block of ``kind``."""
    head = MINIMAL[: MINIMAL.index("experiment {")]
    body = "".join(f"  {k} = {v}\n" for k, v in entries.items())
    return f"{head}experiment {{\n  kind = {kind}\n{body}{extra}}}\n"


def _line(text: str, stripped: str) -> int:
    """1-based number of the first line of ``text`` that reads ``stripped``."""
    return [ln.strip() for ln in text.splitlines()].index(stripped) + 1


@pytest.mark.parametrize("kind,cls,required,optional,defaults", EXPERIMENT_KINDS, ids=KIND_IDS)
def test_each_kind_parses_minimal_and_full_blocks(kind, cls, required, optional, defaults):
    (exp,) = parse_config_text(_experiment_text(kind, required)).experiments
    assert type(exp) is cls and exp.name == f"{kind}-0"
    for attr, value in defaults.items():
        assert getattr(exp, attr) == value, attr
    (full,) = parse_config_text(_experiment_text(kind, {"id": "x", **required, **optional})).experiments
    assert full.name == "x"
    for key, text in {**required, **optional}.items():
        if key in INT_KEYS:
            assert getattr(full, key) == int(text), key
        elif key in FLOAT_KEYS:
            assert getattr(full, key) == float(text), key
    if "csco" in optional:
        assert full.cset_id == "sz"
    if "step" in required:
        assert full.steps == (("sz", 0.5),)
    if "grid_file" in required:
        assert full.grid_file == "grid.txt"


@pytest.mark.parametrize(
    "kind,required", [(row[0], row[2]) for row in EXPERIMENT_KINDS if "csco" in row[3]]
)
def test_each_kind_must_name_its_csco_when_several_are_defined(kind, required):
    (exp,) = parse_config_text(_experiment_text(kind, required)).experiments
    assert exp.cset_id is None  # a single csco may be left out
    sx = MINIMAL[MINIMAL.index("csco {") : MINIMAL.index("experiment {")].replace("id = sz", "id = sx")

    def with_sx(entries):
        return _experiment_text(kind, entries).replace("experiment {", sx + "experiment {", 1)

    text = with_sx(required)
    message = f"line {_line(text, 'experiment {')}: {kind} needs 'csco'"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config_text(text)
    (exp,) = parse_config_text(with_sx({**required, "csco": "sx"})).experiments
    assert exp.cset_id == "sx"


@pytest.mark.parametrize(
    "kind,key",
    [(row[0], key) for row in EXPERIMENT_KINDS for key in row[2]],
)
def test_each_kind_requires_its_keys(kind, key):
    (required,) = [row[2] for row in EXPERIMENT_KINDS if row[0] == kind]
    text = _experiment_text(kind, {k: v for k, v in required.items() if k != key})
    block_line = _line(text, "experiment {")
    if key == "step":
        message = f"line {block_line}: {kind} needs at least one 'step'"
    else:
        message = f"line {block_line}: block 'experiment' is missing key '{key}'"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config_text(text)


@pytest.mark.parametrize("kind,cls,required,optional,defaults", EXPERIMENT_KINDS, ids=KIND_IDS)
def test_each_kind_rejects_keys_it_does_not_take(kind, cls, required, optional, defaults):
    foreign = sorted(ALL_EXPERIMENT_KEYS - set(required) - set(optional)) + ["bogus"]
    for key in foreign:
        text = _experiment_text(kind, {**required, key: "1"})
        with pytest.raises(ConfigError, match=rf"^line {_line(text, f'{key} = 1')}: unknown key '{key}'"):
            parse_config_text(text)
    if kind != "qgrid":
        text = _experiment_text(kind, required, extra="  scheduler {\n  }\n")
        with pytest.raises(ConfigError, match=rf"^line {_line(text, 'scheduler {')}: unknown block"):
            parse_config_text(text)


@pytest.mark.parametrize(
    "kind,key",
    [(row[0], key) for row in EXPERIMENT_KINDS for key in (*row[2], *row[3])
     if key in INT_KEYS | FLOAT_KEYS],
)
def test_each_kind_rejects_non_numeric_values(kind, key):
    (row,) = [row for row in EXPERIMENT_KINDS if row[0] == kind]
    text = _experiment_text(kind, {**row[2], **row[3], key: "x1"})
    expects = "an integer" if key in INT_KEYS else "a number"
    message = f"line {_line(text, f'{key} = x1')}: '{key}' expects {expects}, got 'x1'"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config_text(text)


def _scheduler_text(where: str, body: str) -> str:
    """A config whose csco, or whose single qgrid experiment, has a scheduler block."""
    block = f"scheduler {{\n{body}}}\n"
    if where == "csco":
        return MINIMAL.replace("  labels = (0), (1)\n", "  labels = (0), (1)\n" + block, 1)
    (row,) = [row for row in EXPERIMENT_KINDS if row[0] == "qgrid"]
    return _experiment_text("qgrid", row[2], extra=block)


def _parsed_scheduler(where: str, body: str) -> SchedulerSpec:
    cfg = parse_config_text(_scheduler_text(where, body))
    return cfg.scenario.schedulers["sz"] if where == "csco" else cfg.experiments[0].scheduler


@pytest.mark.parametrize("where", ["csco", "qgrid"])
def test_scheduler_block_keys(where):
    assert _parsed_scheduler(where, "") == SchedulerSpec()
    full = "kind = seeded-random\nmax_subintervals = 3\nseed = 9\noffset = 0.5\n"
    assert _parsed_scheduler(where, full) == SchedulerSpec("seeded-random", 3, 9, 0.5)

    text = _scheduler_text(where, "seed = 1\nbogus = 1\n")
    with pytest.raises(ConfigError, match=rf"^line {_line(text, 'bogus = 1')}: unknown key 'bogus'"):
        parse_config_text(text)
    for key in ("max_subintervals", "seed", "offset"):
        text = _scheduler_text(where, f"{key} = x1\n")
        expects = "an integer" if key in INT_KEYS else "a number"
        message = f"line {_line(text, f'{key} = x1')}: '{key}' expects {expects}, got 'x1'"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config_text(text)

    text = _scheduler_text(where, "seed = 1\nkind = banana\n")
    message = (
        f"line {_line(text, 'kind = banana')}: unknown scheduler kind 'banana'; "
        "choose from contiguous, two-outcome, seeded-random"
    )
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config_text(text)

    text = _scheduler_text(where, "offset = 2\n")
    with pytest.raises(ConfigError, match=rf"^line {_line(text, 'scheduler {')}: offset must lie in \[0, 1\]"):
        parse_config_text(text)


@pytest.mark.parametrize("where", ["csco", "qgrid"])
def test_scheduler_max_subintervals_is_bounded(where):
    # Parsed only: a layout at the bound would allocate 2**16 pieces per label.
    body = "kind = seeded-random\nmax_subintervals = {}\n"
    assert _parsed_scheduler(where, body.format(2**16)).max_subintervals == 2**16
    text = _scheduler_text(where, body.format(2**16 + 1))
    message = f"line {_line(text, 'scheduler {')}: max_subintervals must be an integer in [1, 65536], got 65537"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config_text(text)


@pytest.mark.parametrize("where", ["csco", "qgrid"])
def test_scheduler_seed_must_be_non_negative(where):
    assert _parsed_scheduler(where, "seed = 0\n").seed == 0
    text = _scheduler_text(where, "kind = seeded-random\nseed = -3\n")
    message = f"line {_line(text, 'scheduler {')}: seed must be an integer of at least 0, got -3"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config_text(text)


def test_scales_block_is_an_unknown_block():
    # Every computation is in units of tau, so no block converts to seconds.
    text = MINIMAL + "scales {\n  tau = 8.1e-21\n}\n"
    message = f"line {_line(text, 'scales {')}: unknown block 'scales' in block '<root>'"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config_text(text)


def test_readme_config_examples_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    examples = re.findall(r"^```text\n(.*?)^```", readme, flags=re.S | re.M)
    assert examples
    for text in examples:
        assert parse_config_text(text).experiments


def _every_block_kind() -> str:
    """MINIMAL plus a csco scheduler and one experiment of each kind."""
    head = MINIMAL[: MINIMAL.index("experiment {")].replace(
        "  labels = (0), (1)\n", "  labels = (0), (1)\n  scheduler {\n  }\n", 1
    )
    experiments = []
    for kind, _, required, _, _ in EXPERIMENT_KINDS:
        body = "".join(f"  {k} = {v}\n" for k, v in required.items())
        extra = "  scheduler {\n  }\n" if kind == "qgrid" else ""
        experiments.append(f"experiment {{\n  kind = {kind}\n{body}{extra}}}\n")
    return head + "".join(experiments)


EVERY_BLOCK_KIND = _every_block_kind()

# (case, opener of the block the item goes into, which such opener); None is the root.
BLOCK_KINDS = [
    ("root", None, 0),
    ("system", "system {", 0),
    ("hamiltonian", "hamiltonian {", 0),
    ("csco", "csco {", 0),
    ("basis", "basis {", 0),
    ("csco-scheduler", "scheduler {", 0),
    ("qgrid-scheduler", "scheduler {", 1),
] + [(f"experiment-{kind}", "experiment {", i) for i, kind in enumerate(KIND_IDS)]


def test_every_block_kind_parses_as_written():
    cfg = parse_config_text(EVERY_BLOCK_KIND)
    assert [type(e).kind for e in cfg.experiments] == KIND_IDS
    assert cfg.experiments[-1].scheduler == SchedulerSpec()


@pytest.mark.parametrize("item,what", [("bogus = 1", "key"), ("bogus {\n}", "block")])
@pytest.mark.parametrize("case,opener,occurrence", BLOCK_KINDS, ids=[row[0] for row in BLOCK_KINDS])
def test_unknown_item_rejected_at_its_line(case, opener, occurrence, item, what):
    lines = EVERY_BLOCK_KIND.splitlines()
    openers = [i for i, ln in enumerate(lines) if ln.strip() == opener]
    at = 0 if opener is None else openers[occurrence] + 1
    lines[at:at] = item.splitlines()
    name = "<root>" if opener is None else opener.removesuffix(" {")
    message = f"line {at + 1}: unknown {what} 'bogus' in block '{name}'"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config_text("\n".join(lines) + "\n")


def test_repeated_experiment_id_rejected_at_the_repeated_block():
    text = MINIMAL.replace("kind = trajectory", "kind = trajectory\n  id = same")
    text += "\nexperiment {\n  kind = trajectory\n  id = same\n  windows = 1\n}\n"
    repeated = [i for i, ln in enumerate(text.splitlines(), start=1) if ln == "experiment {"][1]
    message = f"line {repeated}: experiment ids must be unique across the config"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config_text(text)


def test_config_without_csco_rejected_at_the_root_line():
    text = MINIMAL[: MINIMAL.index("csco {")] + MINIMAL[MINIMAL.index("experiment {") :]
    with pytest.raises(ConfigError, match=r"^line 0: config defines no csco block$") as caught:
        parse_config_text(text)
    assert caught.value.line == 0


def test_every_config_error_in_config_py_carries_a_line():
    source = (Path(__file__).resolve().parent.parent / "src" / "qergo" / "config.py").read_text()
    calls = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ConfigError"
    ]
    assert len(calls) >= 20
    for call in calls:
        line = call.args[1] if len(call.args) > 1 else next(
            (k.value for k in call.keywords if k.arg == "line"), None
        )
        assert line is not None, f"config.py:{call.lineno}: ConfigError without a line"
        assert not (isinstance(line, ast.Constant) and line.value is None), call.lineno


def _reads_a_trajectory(run) -> bool:
    """Whether the runner ``run`` calls ``config.trajectory_for``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(run)))
    return any(isinstance(n, ast.Attribute) and n.attr == "trajectory_for" for n in ast.walk(tree))


def test_a_kind_derives_from_trajectory_experiment_exactly_when_its_runner_reads_a_trajectory():
    from qergo.runner import _RUNNERS

    assert set(_RUNNERS) == set(_EXPERIMENT_KINDS.values())
    reads = {cls.kind for cls, run in _RUNNERS.items() if _reads_a_trajectory(run)}
    derived = {cls.kind for cls in _RUNNERS if issubclass(cls, TrajectoryExperiment)}
    assert reads == derived == {"trajectory", "born-sampling", "offset-average", "sub-tau"}
