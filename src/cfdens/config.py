"""Run configuration: plain-text key-value files with dotted sections.

Example::

    measure.interval = 10, 9990
    measure.atoms = 0:1, 10000:1
    measure.cap = 9990
    measure.cap_atom = 10000
    grid.bins = 50
    basis.count = 12
    basis.degree = 3
    effect.edu = categorical(levels=low|mid|high, reference=low)
    effect.age = smooth(count=9, degree=3)
    uncertainty.alpha = 0.05
    uncertainty.draws = 100
    uncertainty.seed = 42
    data.path = data/synthetic_mixed.csv
    data.outcome_column = income
    data.group_column = group
    data.treated_label = E
    data.control_label = W
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .basis import PartialEffectSpec
from .errors import ConfigError
from .measure_grid import ReferenceMeasure
from .sim_benchmark import ESTIMATORS


@dataclass
class RunConfig:
    measure: ReferenceMeasure = None
    cap: float | None = None
    cap_atom: float | None = None
    n_bins: int = 50
    basis_count: int = 12
    basis_degree: int = 3
    effects: list[PartialEffectSpec] = field(default_factory=list)
    alpha: float = 0.05
    draws: int = 100
    seed: int = 0
    data_path: str = ""
    outcome_column: str = ""
    group_column: str = ""
    treated_label: str = ""
    control_label: str = ""
    weight_column: str | None = None
    marginal_covariates: list[str] = field(default_factory=list)
    sim_n: list[int] = field(default_factory=lambda: [500, 1000, 5000])
    sim_replications: int = 200
    sim_estimators: list[str] = field(default_factory=lambda: list(ESTIMATORS))
    raw_text: str = ""

    def __post_init__(self):
        if not 0 < self.alpha <= 0.5:
            raise ConfigError(f"uncertainty.alpha must be in (0, 0.5], got {self.alpha}")
        if self.draws < 0:
            raise ConfigError("draws must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"uncertainty.seed must be >= 0, got {self.seed}")
        if (self.cap is None) != (self.cap_atom is None):
            raise ConfigError("measure.cap and measure.cap_atom must be set together")
        if self.cap_atom is not None and self.cap_atom not in self.measure.atom_locations:
            raise ConfigError(f"measure.cap_atom = {self.cap_atom:g} is not in measure.atoms")
        if self.treated_label and self.treated_label == self.control_label:
            raise ConfigError("data.treated_label and data.control_label are both "
                              f"'{self.treated_label}'")
        names = {e.covariate_name for e in self.effects if e.kind != "intercept"}
        # key, its list, the test each item passes, and the error of an item that fails
        for key, items, valid, error in (
            ("marginal.covariates", self.marginal_covariates, lambda x: x in names,
             "no key effect.{}"),
            ("simulate.estimators", self.sim_estimators, lambda x: x in ESTIMATORS,
             "unknown estimator '{}' (one of " + ", ".join(ESTIMATORS) + ")"),
            ("simulate.n", self.sim_n, lambda n: n > 0, "{} is not positive"),
        ):
            for i, item in enumerate(items):
                if item in items[:i]:
                    raise ConfigError(f"{key} lists {item!r} twice")
                if not valid(item):
                    raise ConfigError(f"{key}: " + error.format(item))


#: key -> (RunConfig field, type of its value) for the keys that set one field;
#: a one-element tuple is a comma-separated list of that type
FIELDS = {
    "measure.cap": ("cap", float),
    "measure.cap_atom": ("cap_atom", float),
    "grid.bins": ("n_bins", int),
    "basis.count": ("basis_count", int),
    "basis.degree": ("basis_degree", int),
    "uncertainty.alpha": ("alpha", float),
    "uncertainty.draws": ("draws", int),
    "uncertainty.seed": ("seed", int),
    "data.path": ("data_path", str),
    "data.outcome_column": ("outcome_column", str),
    "data.group_column": ("group_column", str),
    "data.treated_label": ("treated_label", str),
    "data.control_label": ("control_label", str),
    "data.weight_column": ("weight_column", str),
    "marginal.covariates": ("marginal_covariates", (str,)),
    "simulate.n": ("sim_n", (int,)),
    "simulate.replications": ("sim_replications", int),
    "simulate.estimators": ("sim_estimators", (str,)),
}
#: the other keys, besides ``effect.<covariate>``
OTHER_KEYS = frozenset({"measure.interval", "measure.atoms", "penalty"})
#: effect kind -> the arguments it takes
EFFECT_ARGUMENTS = {"categorical": ("levels", "reference"), "smooth": ("count", "degree")}


def _value(key: str, text: str, kind):
    """``text`` as ``kind``; a number that does not parse raises ``ConfigError`` naming the key."""
    if isinstance(kind, tuple):  # empty names in a list are skipped
        items = [part.strip() for part in text.split(",")]
        return [_value(key, item, kind[0]) for item in items if item or kind[0] is not str]
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key}: cannot parse '{text}' as {what}") from None


def _parse_kv(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in FIELDS and key not in OTHER_KEYS and not key.startswith("effect."):
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in out:
            raise ConfigError(f"line {lineno}: key '{key}' already set on line {first_line[key]}")
        out[key], first_line[key] = value, lineno
    return out


def _parse_effect(name: str, text: str) -> PartialEffectSpec:
    m = re.fullmatch(r"(\w+)\s*(?:\((.*)\))?", text.strip())
    if not m:
        raise ConfigError(f"cannot parse effect '{name}': {text}")
    kind, argstr = m.group(1), m.group(2) or ""
    if kind not in EFFECT_ARGUMENTS:
        raise ConfigError(f"effect '{name}': unknown kind '{kind}'")
    args = {}
    for part in filter(None, (p.strip() for p in argstr.split(","))):
        if "=" not in part:
            raise ConfigError(f"effect '{name}': bad argument '{part}'")
        k, v = (s.strip() for s in part.split("=", 1))
        if k not in EFFECT_ARGUMENTS[kind]:
            raise ConfigError(f"effect '{name}': {kind} has no argument '{k}'")
        if k in args:
            raise ConfigError(f"effect '{name}': argument '{k}' given twice")
        args[k] = v
    if kind == "categorical":
        if "levels" not in args or "reference" not in args:
            raise ConfigError(f"effect '{name}': categorical needs levels and reference")
        levels = [level.strip() for level in args["levels"].split("|")]
        return PartialEffectSpec.categorical(name, levels, args["reference"])
    return PartialEffectSpec.smooth(
        name,
        knot_count=_value(f"effect.{name} count", args.get("count", "9"), int),
        degree=_value(f"effect.{name} degree", args.get("degree", "3"), int),
    )


def parse_config(text: str) -> RunConfig:
    kv = _parse_kv(text)

    interval = None
    if "measure.interval" in kv:
        parts = _value("measure.interval", kv["measure.interval"], (float,))
        if len(parts) != 2:
            raise ConfigError("measure.interval needs two bounds")
        interval = (parts[0], parts[1])
    atoms = []
    if "measure.atoms" in kv and kv["measure.atoms"]:
        for part in kv["measure.atoms"].split(","):
            bits = part.strip().split(":")
            if len(bits) > 2:
                raise ConfigError(f"measure.atoms: '{part.strip()}' is not location:weight")
            loc, *weight = (_value("measure.atoms", bit, float) for bit in bits)
            atoms.append((loc, weight[0] if weight else 1.0))
    measure = ReferenceMeasure(continuous_interval=interval, atoms=tuple(atoms))

    effects = [PartialEffectSpec.intercept()]
    for key in kv:
        if key.startswith("effect."):
            effects.append(_parse_effect(key[len("effect."):], kv[key]))

    # the fit takes no user penalty; "penalty = 0" is accepted as a no-op
    if _value("penalty", kv.get("penalty", "0"), float) != 0:
        raise ConfigError(f"penalty = {kv['penalty']}: the fit has no penalty option")

    # a key left out keeps the RunConfig default
    fields = {name: _value(key, kv[key], kind)
              for key, (name, kind) in FIELDS.items() if key in kv}
    return RunConfig(measure=measure, effects=effects, raw_text=text, **fields)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_config(fh.read())
