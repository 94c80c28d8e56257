"""Shared test utilities: corpus loading and generated call chains."""

import importlib.util
import pathlib
import sys

from anfj.syntax import LabeledProgram, load_program

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
PERFBENCH_DIR = pathlib.Path(__file__).parents[1] / "perfbench"
CHAINS = ("chain7", "chain10")


def corpus_source(name: str) -> str:
    return (CORPUS_DIR / f"{name}.anfj").read_text()


def corpus_program(name: str) -> LabeledProgram:
    return load_program(corpus_source(name))


def corpus_names() -> list[str]:
    return sorted(p.stem for p in CORPUS_DIR.glob("*.anfj"))


def named_program(name: str) -> LabeledProgram:
    """A corpus program, or one of the CHAINS."""
    if name in CHAINS:
        return load_program(chain_sources()[name])
    return corpus_program(name)


def perfbench_module(name: str):
    """`perfbench/<name>.py` as a module."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def gen_module():
    """`perfbench/gen.py`, the seeded program generator, as a module."""
    return perfbench_module("gen")


def chain_sources() -> dict:
    """Name -> source of the CHAINS call-chain programs that
    `perfbench/gen.py` generates for seed 1."""
    return {p.name: p.source for p in gen_module().generate("chain", 1)
            if p.name in CHAINS}
