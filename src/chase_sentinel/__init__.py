"""Static termination analysis for disjunctive existential rule sets.

The package runs the restricted chase over disjunctive existential rules,
decides boolean conjunctive query entailment, certifies rule sets as
never-terminating through prefix-cyclicity searches with replayable
witnesses, and certifies termination through a blocked critical-instance
saturation. The `chase-sentinel` console script fronts all of it.
"""
from importlib import resources
from pathlib import Path

__version__ = "0.1.0"


def corpus_dir() -> Path:
    """Directory holding the bundled example rule sets (*.drls)."""
    return Path(str(resources.files(__package__).joinpath("corpus")))
