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
    sim_estimators: list[str] = field(default_factory=lambda: ["bayes", "kde"])
    raw_text: str = ""

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ConfigError(f"alpha must be in (0,1), got {self.alpha}")
        if self.draws < 0:
            raise ConfigError("draws must be >= 0")


def _parse_kv(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _parse_effect(name: str, text: str) -> PartialEffectSpec:
    m = re.fullmatch(r"(\w+)\s*(?:\((.*)\))?", text.strip())
    if not m:
        raise ConfigError(f"cannot parse effect '{name}': {text}")
    kind, argstr = m.group(1), m.group(2) or ""
    args = {}
    for part in filter(None, (p.strip() for p in argstr.split(","))):
        if "=" not in part:
            raise ConfigError(f"effect '{name}': bad argument '{part}'")
        k, v = part.split("=", 1)
        args[k.strip()] = v.strip()
    if kind == "categorical":
        if "levels" not in args or "reference" not in args:
            raise ConfigError(f"effect '{name}': categorical needs levels and reference")
        return PartialEffectSpec.categorical(
            name, args["levels"].split("|"), args["reference"]
        )
    if kind == "smooth":
        return PartialEffectSpec.smooth(
            name,
            knot_count=int(args.get("count", 9)),
            degree=int(args.get("degree", 3)),
        )
    raise ConfigError(f"effect '{name}': unknown kind '{kind}'")


def parse_config(text: str) -> RunConfig:
    kv = _parse_kv(text)

    interval = None
    if "measure.interval" in kv:
        parts = [float(p) for p in kv["measure.interval"].split(",")]
        if len(parts) != 2:
            raise ConfigError("measure.interval needs two bounds")
        interval = (parts[0], parts[1])
    atoms = []
    if "measure.atoms" in kv and kv["measure.atoms"]:
        for part in kv["measure.atoms"].split(","):
            bits = part.strip().split(":")
            loc = float(bits[0])
            weight = float(bits[1]) if len(bits) > 1 else 1.0
            atoms.append((loc, weight))
    measure = ReferenceMeasure(continuous_interval=interval, atoms=tuple(atoms))

    effects = [PartialEffectSpec.intercept()]
    for key in kv:
        if key.startswith("effect."):
            effects.append(_parse_effect(key[len("effect."):], kv[key]))

    def geti(key, default):
        return int(kv[key]) if key in kv else default

    def getf(key, default):
        return float(kv[key]) if key in kv else default

    # the fit takes no user penalty; "penalty = 0" is accepted as a no-op
    if getf("penalty", 0.0) != 0:
        raise ConfigError(f"penalty = {kv['penalty']}: the fit has no penalty option")

    return RunConfig(
        measure=measure,
        cap=getf("measure.cap", None) if "measure.cap" in kv else None,
        cap_atom=getf("measure.cap_atom", None) if "measure.cap_atom" in kv else None,
        n_bins=geti("grid.bins", 50),
        basis_count=geti("basis.count", 12),
        basis_degree=geti("basis.degree", 3),
        effects=effects,
        alpha=getf("uncertainty.alpha", 0.05),
        draws=geti("uncertainty.draws", 100),
        seed=geti("uncertainty.seed", 0),
        data_path=kv.get("data.path", ""),
        outcome_column=kv.get("data.outcome_column", ""),
        group_column=kv.get("data.group_column", ""),
        treated_label=kv.get("data.treated_label", ""),
        control_label=kv.get("data.control_label", ""),
        weight_column=kv.get("data.weight_column") or None,
        marginal_covariates=[
            c.strip() for c in kv.get("marginal.covariates", "").split(",") if c.strip()
        ],
        sim_n=[int(x) for x in kv.get("simulate.n", "500, 1000, 5000").split(",")],
        sim_replications=geti("simulate.replications", 200),
        sim_estimators=[
            e.strip() for e in kv.get("simulate.estimators", "bayes, kde").split(",")
        ],
        raw_text=text,
    )


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
