"""Named tower presets used by the CLI and the verification suite."""

from __future__ import annotations

from typing import Dict

from .tower import TowerSpec

_CATALOG = {
    "T0": {
        "spec": TowerSpec(block_shapes=((3,),), num_generators=1, mode="strict",
                          generator_seed=11, generator_recipe="leading-factor"),
        "claims": "single-level construction, coupling normalization, full recovery",
        "note": None,
    },
    "T1": {
        "spec": TowerSpec(block_shapes=((3,), (21,)), num_generators=1, mode="strict",
                          generator_seed=7, generator_recipe="leading-factor"),
        "claims": "depth-2 strict tower (level-2 bound 2*9+3 = 21), construction "
                  "identities, recovery, generation distance",
        "note": None,
    },
    "T1b": {
        "spec": TowerSpec(block_shapes=((3,), (12,)), num_generators=1, mode="relaxed",
                          generator_seed=7, generator_recipe="leading-factor"),
        "claims": "depth-2 tower at the single-generator row-capacity bound 1*9+3 = 12",
        "note": "relaxed: the strict level-2 bound 2*9+3 = 21 exceeds the block size; "
                "one encoded generator needs only 12 rows",
    },
    "T2": {
        "spec": TowerSpec(block_shapes=((7,), (52,)), num_generators=1, mode="relaxed",
                          generator_seed=7, generator_recipe="leading-factor"),
        "claims": "depth-2 tower at d = 364, at the single-generator row-capacity bound "
                  "1*49+3 = 52",
        "note": "relaxed: the strict level-2 bound 2*49+3 = 101 exceeds the block size; "
                "one encoded generator needs only 52 rows",
    },
    "T3": {
        "spec": TowerSpec(block_shapes=((9,), (84,)), num_generators=1, mode="relaxed",
                          generator_seed=7, generator_recipe="leading-factor"),
        "claims": "depth-2 tower at d = 756, at the single-generator row-capacity bound "
                  "1*81+3 = 84",
        "note": "relaxed: the strict level-2 bound 2*81+3 = 165 exceeds the block size; "
                "one encoded generator needs only 84 rows",
    },
    "U2": {
        "spec": TowerSpec(block_shapes=((2,), (2,), (2,)), num_generators=1, mode="relaxed",
                          generator_seed=5, generator_recipe="uhf"),
        "claims": "three commuting 2x2 factors with tensor-word generators",
        "note": "relaxed: block sizes below 3 leave no coupling rows, so only the "
                "tower predicates apply; generator construction reports "
                "InsufficientSubrank by design",
    },
}


def list_presets() -> Dict[str, dict]:
    """Catalog of named presets with their specs and exercised claims."""
    return {
        name: {
            "spec": entry["spec"].to_json(),
            "claims": entry["claims"],
            "note": entry["note"],
        }
        for name, entry in _CATALOG.items()
    }


def preset_spec(name: str) -> TowerSpec:
    if name not in _CATALOG:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(_CATALOG)}")
    return _CATALOG[name]["spec"]
