"""Declarative scenario files: a strict line-based grammar with nested blocks.

The format is deliberately small: ``key = value`` pairs and ``name { ... }``
blocks, one item per line, ``#`` comments.  Unknown keys and blocks are
rejected at their line in every block, matrix blocks included — silent typos
in physics configs are the classic failure mode, so parsing is strict.

List values (``state``, ``row``, ``labels``, ``eigenvalues``, ``step``)
separate their items by single commas; an empty, leading, doubled or
trailing item is refused.  Tuples are written ``(0)`` or ``(0,1)``, the
same rule applying inside the parentheses.  Complex literals are written
``1.5``, ``2i`` or ``0.5-0.5i`` and read as ``complex()`` reads them with
``j`` written ``i``.

Example::

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
      windows = 10
    }

Parsing yields a :class:`ScenarioConfig`: its ``scenario`` holds the
``system`` and ``csco`` blocks as one :class:`~qergo.microstate.Scenario`,
built once, and its ``experiments`` hold one dataclass per ``experiment``
block.  See the bundled configs for complete working scenarios.
"""

from __future__ import annotations

import hashlib
import cmath
import re
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import ClassVar, get_args

import numpy as np

from .errors import ConfigError
from .hilbert import CommutingSet, Hamiltonian, make_state
from .microstate import JumpTrajectory, Scenario
from .partition import SCHEDULER_KINDS, SchedulerSpec

__all__ = [
    "ScenarioConfig",
    "TrajectoryExperiment",
    "BornSamplingExperiment",
    "OffsetAverageExperiment",
    "SubTauExperiment",
    "SequentialExperiment",
    "QGridExperiment",
    "parse_config_text",
    "load_config",
]

_UNSIGNED = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
# ``a``, ``bi`` or ``a+bi``: the forms complex() reads, with ``j`` written ``i``.
_COMPLEX_RE = re.compile(rf"[+-]?{_UNSIGNED}(?:(?:[+-]{_UNSIGNED})?i)?")
_BLOCK_OPEN_RE = re.compile(r"^([A-Za-z][\w-]*)\s*\{$")
_KEY_VALUE_RE = re.compile(r"^([A-Za-z][\w-]*)\s*=\s*(.*)$")


@dataclass(frozen=True)
class _Entry:
    key: str
    value: str
    line: int


@dataclass
class _Block:
    name: str
    line: int
    items: list = field(default_factory=list)  # _Entry | _Block

    def entries(self, key: str) -> list[_Entry]:
        return [it for it in self.items if isinstance(it, _Entry) and it.key == key]

    def blocks(self, name: str) -> list["_Block"]:
        return [it for it in self.items if isinstance(it, _Block) and it.name == name]

    def one(self, name: str, required: bool = True, block: bool = False):
        """The one key ``name`` (sub-block, with ``block``); None if optional and absent."""
        found, what = (self.blocks(name), "block") if block else (self.entries(name), "key")
        if len(found) > 1:
            where = "inside" if block else "in block"
            raise ConfigError(f"duplicate {what} {name!r} {where} {self.name!r}", found[1].line)
        if not found and required:
            raise ConfigError(f"block {self.name!r} is missing {what} {name!r}", self.line)
        return found[0] if found else None


def _parse_tree(text: str) -> _Block:
    root = _Block(name="<root>", line=0)
    stack = [root]
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "}":
            if len(stack) == 1:
                raise ConfigError("unmatched '}'", ln)
            stack.pop()
            continue
        m = _BLOCK_OPEN_RE.match(line)
        if m:
            block = _Block(name=m.group(1), line=ln)
            stack[-1].items.append(block)
            stack.append(block)
            continue
        m = _KEY_VALUE_RE.match(line)
        if m:
            stack[-1].items.append(_Entry(key=m.group(1), value=m.group(2).strip(), line=ln))
            continue
        raise ConfigError(f"cannot parse {line!r} (expected 'key = value', 'name {{' or '}}')", ln)
    if len(stack) != 1:
        raise ConfigError(f"unclosed block {stack[-1].name!r}", stack[-1].line)
    return root


def _parse_int(entry: _Entry) -> int:
    try:
        return int(entry.value)
    except ValueError:
        raise ConfigError(f"{entry.key!r} expects an integer, got {entry.value!r}", entry.line) from None


def _at(line: int, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ValueError raised as a ConfigError at ``line``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc), line) from None


def _finite(x: complex, entry: _Entry) -> complex:
    """``x``, or a ConfigError at the entry's line when a part of it is inf or nan."""
    if not cmath.isfinite(x):
        raise ConfigError(f"{entry.key!r} must be a finite number, got {entry.value!r}", entry.line)
    return x


def _parse_float(entry: _Entry) -> float:
    try:
        x = float(entry.value)
    except ValueError:
        raise ConfigError(f"{entry.key!r} expects a number, got {entry.value!r}", entry.line) from None
    return _finite(x, entry)


def _items(text: str, entry: _Entry) -> list[str]:
    """The comma-separated items of ``text``, stripped; an empty item is refused."""
    items = [t.strip() for t in text.split(",")]
    if "" in items:
        raise ConfigError(f"{entry.key!r} has an empty item in {entry.value!r}", entry.line)
    return items


def _parse_complex_token(token: str, entry: _Entry) -> complex:
    if not _COMPLEX_RE.fullmatch(token):
        raise ConfigError(
            f"{entry.key!r}: cannot parse complex literal {token!r} (use forms 1.5, 2i, 1+2i)",
            entry.line,
        )
    return complex(token.replace("i", "j"))


def _parse_complex_list(entry: _Entry) -> list[complex]:
    return [_parse_complex_token(t, entry) for t in _items(entry.value, entry)]


def _parse_tuple_list(entry: _Entry, caster) -> list[tuple]:
    if any(item != "()" for item in _items(re.sub(r"\([^()]*\)", "()", entry.value), entry)):
        raise ConfigError(
            f"{entry.key!r} expects tuples like (0), (1) or (0,1), (1,0); got {entry.value!r}",
            entry.line,
        )
    out = []
    for g in re.findall(r"\(([^()]*)\)", entry.value):
        try:
            out.append(tuple(caster(p) for p in _items(g, entry)))
        except ValueError:
            raise ConfigError(f"{entry.key!r}: bad tuple entry in ({g})", entry.line) from None
    return out


def _parse_matrix(block: _Block, dimension: int) -> np.ndarray:
    _reject_unknown(block, {"row"}, set())
    rows = block.entries("row")
    if len(rows) != dimension:
        raise ConfigError(
            f"block {block.name!r} needs {dimension} 'row' entries, found {len(rows)}", block.line
        )
    mat = []
    for entry in rows:
        vals = _parse_complex_list(entry)
        if len(vals) != dimension:
            raise ConfigError(
                f"row has {len(vals)} entries, expected {dimension}", entry.line
            )
        mat.append([_finite(v, entry) for v in vals])
    return np.array(mat, dtype=np.complex128)


def _reject_unknown(block: _Block, keys: set[str], blocks: set[str]):
    """The only unknown-item check; every block passes it before it is read."""
    for it in block.items:
        if isinstance(it, _Entry) and it.key not in keys:
            raise ConfigError(f"unknown key {it.key!r} in block {block.name!r}", it.line)
        if isinstance(it, _Block) and it.name not in blocks:
            raise ConfigError(f"unknown block {it.name!r} in block {block.name!r}", it.line)


# A dataclass field is read from the config key of the same name, except these.
_CONFIG_KEYS = {"name": "id", "cset_id": "csco", "steps": "step"}
# Keyed by annotation text: the dataclasses read here are declared in modules
# with ``from __future__ import annotations``, so ``Field.type`` is a string.
_VALUE_PARSERS = {"int": _parse_int, "float": _parse_float, "str": lambda entry: entry.value}


def _parse_fields(block: _Block, cls, **given):
    """Build ``cls`` from ``block``, reading every field not ``given`` as a key.

    The field's type picks the parser; a field with a default may be left
    out.  Keys (and ``SchedulerSpec`` sub-blocks) that name no field of
    ``cls`` are rejected, except ``kind`` when ``cls`` has one.
    """
    cls_fields = fields(cls)
    blocks = {f.name for f in cls_fields if f.type == "SchedulerSpec"}
    keys = {_CONFIG_KEYS.get(f.name, f.name) for f in cls_fields} - blocks
    if hasattr(cls, "kind"):
        keys.add("kind")
    _reject_unknown(block, keys, blocks)
    kwargs = dict(given)
    for f in cls_fields:
        if f.name not in given:
            entry = block.one(f.name, required=f.default is MISSING)
            if entry is not None:
                kwargs[f.name] = _VALUE_PARSERS[f.type](entry)
    return _at(block.line, cls, **kwargs)


def _parse_scheduler(block: _Block | None) -> SchedulerSpec:
    if block is None:
        return SchedulerSpec()
    e = block.one("kind", required=False)
    if e is not None and e.value not in SCHEDULER_KINDS:
        raise ConfigError(
            f"unknown scheduler kind {e.value!r}; choose from {', '.join(SCHEDULER_KINDS)}",
            e.line,
        )
    return _parse_fields(block, SchedulerSpec)


@dataclass(frozen=True, kw_only=True)
class TrajectoryExperiment:
    kind: ClassVar[str] = "trajectory"
    name: str
    cset_id: str | None
    windows: int


@dataclass(frozen=True, kw_only=True)
class BornSamplingExperiment:
    kind: ClassVar[str] = "born-sampling"
    name: str
    cset_id: str | None
    windows: int
    window: int = 0
    samples: int
    seed: int


@dataclass(frozen=True, kw_only=True)
class OffsetAverageExperiment:
    kind: ClassVar[str] = "offset-average"
    name: str
    cset_id: str | None
    windows: int
    alpha: float
    member: int = 0


@dataclass(frozen=True, kw_only=True)
class SubTauExperiment:
    kind: ClassVar[str] = "sub-tau"
    name: str
    cset_id: str | None
    windows: int
    delta: float
    pairs: int
    seed: int


@dataclass(frozen=True, kw_only=True)
class SequentialExperiment:
    kind: ClassVar[str] = "sequential-measurement"
    name: str
    steps: tuple[tuple[str, float], ...]
    runs: int
    seed: int


@dataclass(frozen=True, kw_only=True)
class QGridExperiment:
    kind: ClassVar[str] = "qgrid"
    name: str
    grid_file: str
    planck_step: float
    compton_wavelength: float
    center_cell: int
    window_index: int = 0
    scheduler: SchedulerSpec


Experiment = (
    TrajectoryExperiment
    | BornSamplingExperiment
    | OffsetAverageExperiment
    | SubTauExperiment
    | SequentialExperiment
    | QGridExperiment
)

_EXPERIMENT_KINDS = {cls.kind: cls for cls in get_args(Experiment)}


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """A fully validated scenario file, ready to run.

    ``scenario`` is the one :class:`Scenario` of the ``system`` and ``csco``
    blocks; every experiment reads from it, and experiments that read the
    same trajectory share it (see :meth:`trajectory_for`).
    """

    scenario: Scenario
    experiments: tuple[Experiment, ...]
    output_dir: str
    base_dir: Path
    sha256: str
    # (set id, windows) -> the experiments that read that trajectory, in order.
    _readers: dict = field(init=False, repr=False)
    # (set id, windows) -> (position of its next reader in _readers, trajectory).
    _held: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        readers = {}
        for exp in self.experiments:
            if hasattr(exp, "windows"):  # the kinds that read a trajectory
                readers.setdefault(self._key(exp), []).append(exp)
        object.__setattr__(self, "_readers", {k: tuple(v) for k, v in readers.items()})

    def _key(self, exp) -> tuple[str, int]:
        return self.scenario.cset(exp.cset_id).id, exp.windows

    def trajectory_for(self, exp: Experiment) -> JumpTrajectory:
        """The trajectory ``exp`` reads, shared with its config's other readers.

        Experiments that name the same set (``None`` resolved to the only
        one) over the same windows read one trajectory: the first reader's
        read builds it, and it is held for the next reader only, so it is
        dropped after the last and a trajectory read once is never held.
        Every reader gets the same read-only object, the one a rebuild
        would give.  A read out of turn (out of order, or a second read)
        builds the trajectory again.
        """
        key = self._key(exp)
        readers = self._readers.get(key, ())
        held = self._held.pop(key, None)
        if held is not None and readers[held[0]] is exp:
            turn, traj = held
        else:
            turn = next((i for i, r in enumerate(readers) if r is exp), len(readers))
            traj = self.scenario.build_trajectory(*key)
        if turn + 1 < len(readers):
            self._held[key] = (turn + 1, traj)
        return traj


def _parse_steps(block: _Block, cset_ids: set[str]) -> tuple[tuple[str, float], ...]:
    steps = []
    for e in block.entries("step"):
        parts = _items(e.value, e)
        if len(parts) != 2:
            raise ConfigError(f"'step' expects 'csco_id, time', got {e.value!r}", e.line)
        cid, t = parts
        if cid not in cset_ids:
            raise ConfigError(f"unknown csco id {cid!r} in step", e.line)
        try:
            u = float(t)
        except ValueError:
            raise ConfigError(f"bad step time {t!r}", e.line) from None
        steps.append((cid, _finite(u, e)))
    if not steps:
        raise ConfigError(f"{SequentialExperiment.kind} needs at least one 'step'", block.line)
    return tuple(steps)


def _parse_experiment(block: _Block, ordinal: int, cset_ids: set[str]) -> Experiment:
    kind_entry = block.one("kind")
    kind = kind_entry.value
    name_entry = block.one("id", required=False)
    name = name_entry.value if name_entry else f"{kind}-{ordinal}"
    if not re.fullmatch(r"[\w][\w.-]*", name):
        raise ConfigError(f"experiment id {name!r} must be a simple filename stem", block.line)
    cls = _EXPERIMENT_KINDS.get(kind)
    if cls is None:
        raise ConfigError(
            f"unknown experiment kind {kind!r} ({', '.join(_EXPERIMENT_KINDS)})", kind_entry.line
        )

    given = {"name": name}
    field_names = {f.name for f in fields(cls)}
    if "cset_id" in field_names:
        e = block.one("csco", required=False)
        if e is not None and e.value not in cset_ids:
            raise ConfigError(f"unknown csco id {e.value!r}", e.line)
        if e is None and len(cset_ids) > 1:
            raise ConfigError(
                f"{kind} needs 'csco': the config defines several csco blocks", block.line
            )
        given["cset_id"] = None if e is None else e.value
    if "steps" in field_names:
        given["steps"] = _parse_steps(block, cset_ids)
    if "scheduler" in field_names:
        given["scheduler"] = _parse_scheduler(block.one("scheduler", required=False, block=True))
    return _parse_fields(block, cls, **given)


def parse_config_text(text: str, base_dir: Path | str = ".") -> ScenarioConfig:
    """Parse and validate scenario text into ready-to-run objects."""
    root = _parse_tree(text)
    _reject_unknown(root, {"output_dir"}, {"system", "csco", "experiment"})

    out_entry = root.one("output_dir", required=False)
    output_dir = out_entry.value if out_entry else "out"

    system = root.one("system", block=True)
    _reject_unknown(system, {"dimension", "state"}, {"hamiltonian"})
    dim_entry = system.one("dimension")
    dim = _parse_int(dim_entry)
    if dim < 1:
        raise ConfigError("dimension must be at least 1", dim_entry.line)
    state_entry = system.one("state")
    amps = _parse_complex_list(state_entry)
    if len(amps) != dim:
        raise ConfigError(f"state has {len(amps)} amplitudes, expected {dim}", state_entry.line)
    state0 = _at(state_entry.line, make_state, amps)
    h_block = system.one("hamiltonian", block=True)
    hamiltonian = _at(h_block.line, Hamiltonian, _parse_matrix(h_block, dim))

    csets: list[CommutingSet] = []
    schedulers: dict[str, SchedulerSpec] = {}
    for cblock in root.blocks("csco"):
        _reject_unknown(cblock, {"id", "labels", "eigenvalues"}, {"basis", "scheduler"})
        cid = cblock.one("id").value
        labels = _parse_tuple_list(cblock.one("labels"), int)
        eig = cblock.one("eigenvalues")
        eigenvalues = _parse_tuple_list(eig, lambda p: _finite(float(p), eig))
        basis = _parse_matrix(cblock.one("basis", block=True), dim)
        cs = _at(cblock.line, CommutingSet, cid, basis, tuple(labels), tuple(eigenvalues))
        if cid in schedulers:
            raise ConfigError(f"duplicate csco id {cid!r}", cblock.line)
        csets.append(cs)
        schedulers[cid] = _parse_scheduler(cblock.one("scheduler", required=False, block=True))
    if not csets:
        raise ConfigError("config defines no csco block", root.line)

    experiments = []
    cset_ids = {c.id for c in csets}
    for ordinal, eblock in enumerate(root.blocks("experiment")):
        exp = _parse_experiment(eblock, ordinal, cset_ids)
        if any(e.name == exp.name for e in experiments):
            raise ConfigError("experiment ids must be unique across the config", eblock.line)
        experiments.append(exp)

    return ScenarioConfig(
        scenario=Scenario(state0, hamiltonian, tuple(csets), schedulers),
        experiments=tuple(experiments),
        output_dir=output_dir,
        base_dir=Path(base_dir),
        sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
    )


def load_config(path) -> ScenarioConfig:
    """Read and parse a scenario file; relative paths resolve next to it."""
    p = Path(path)
    return parse_config_text(p.read_text(encoding="utf-8"), base_dir=p.parent)
