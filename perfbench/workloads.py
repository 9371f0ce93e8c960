"""The benchmark's three workloads as lists of `trigrow` CLI invocations.

Every argv is built from the workload seed. The seed picks the binary scale
b in {0.5, 1, 2} with c = gamma * b, the `--seed` value of `perturb`, and
the order of operations in each pass. It never changes the
amount of work: m, gamma and the trial counts are fixed, and the solver
recurrences see the same c/d_k = gamma/k whatever b is. The orientation is
fixed per operation, with both orientations in every workload, because the
upper path copies each column and so changes the peak memory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

SCALES = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its correctness check needs to know."""

    kind: str  # per-kind timing name, reported as <kind>_s
    argv: tuple[str, ...]
    m: int
    gamma: Fraction
    b: float
    c: float
    upper: bool
    output: str | None = None  # file written with -o, relative to the work directory

    @property
    def command(self) -> str:
        return self.argv[0]


def _matrix_args(rng: random.Random, m: int, gamma: Fraction, upper: bool) -> dict:
    b = rng.choice(SCALES)
    c = float(gamma * Fraction(b))  # exact: gamma has a small binary denominator
    flags = ["-m", str(m), "-b", repr(b), "-c", repr(c)] + (["--upper"] if upper else [])
    return {"flags": flags, "m": m, "gamma": gamma, "b": b, "c": c, "upper": upper}


def _op(kind: str, command: str, shape: dict, extra: list[str], **kw) -> Op:
    return Op(
        kind=kind,
        argv=tuple([command] + shape["flags"] + extra),
        m=shape["m"],
        gamma=shape["gamma"],
        b=shape["b"],
        c=shape["c"],
        upper=shape["upper"],
        **kw,
    )


def _eig_solve(rng: random.Random) -> list[Op]:
    # robust at gamma=m rescales (total scale_exp ~390k); robust at gamma=3 never
    # does, so a rescaling change has its control in the same workload
    g = Fraction
    return [
        _op("eig_robust", "eig", _matrix_args(rng, 1000, g(1000), False), ["--method", "robust"]),
        _op("eig_tame", "eig", _matrix_args(rng, 2000, g(3), True), ["--method", "robust"]),
        _op(
            "eig_naive", "eig", _matrix_args(rng, 1000, g(1000), True),
            ["--method", "naive", "--expect", "overflow"],
        ),
        _op(
            "eig_extended", "eig", _matrix_args(rng, 450, g(450), False),
            ["--method", "extended"],
        ),
    ]


# `verify --seed` draws the sizes of the suites' random cases, so a seed-chosen
# value would change the amount of work; it is fixed
VERIFY_SEED = 0


def _cond_verify(rng: random.Random) -> list[Op]:
    perturb_seed = rng.randrange(1_000_000)
    return [
        _op("cond", "cond", _matrix_args(rng, 150, Fraction(150), False), []),
        _op("cond", "cond", _matrix_args(rng, 150, Fraction(3, 2), True), []),
        _op(
            "perturb", "perturb", _matrix_args(rng, 45, Fraction(45), True),
            ["-j", "1", "--trials", "500", "--seed", str(perturb_seed)],
        ),
        Op(
            kind="verify", argv=("verify", "--seed", str(VERIFY_SEED)),
            m=0, gamma=Fraction(0), b=0.0, c=0.0, upper=False,
        ),
        _op(
            "growth", "growth", _matrix_args(rng, 20000, Fraction(20000), False),
            ["--expect", "pass"],
        ),
    ]


def _gen_export(rng: random.Random) -> list[Op]:
    return [
        _op(
            "gen_x_json", "gen", _matrix_args(rng, 300, Fraction(300), True),
            ["--what", "X", "--format", "json", "-o", "x.json"], output="x.json",
        ),
        _op(
            "gen_x_mtx", "gen", _matrix_args(rng, 400, Fraction(3, 2), False),
            ["--what", "X", "-o", "x.mtx"], output="x.mtx",
        ),
        _op(
            "gen_a", "gen", _matrix_args(rng, 900, Fraction(900), True),
            ["--what", "A", "--mm-format", "array", "-o", "a_array.mtx"], output="a_array.mtx",
        ),
        _op(
            "gen_a", "gen", _matrix_args(rng, 900, Fraction(900), False),
            ["--what", "A", "--mm-format", "coordinate", "-o", "a_coord.mtx"],
            output="a_coord.mtx",
        ),
    ]


WORKLOADS = {
    "eig-solve": _eig_solve,
    "cond-verify": _cond_verify,
    "gen-export": _gen_export,
}


def baseline_ops() -> list[Op]:
    """The ROADMAP baseline-table rows that go through the CLI (b = 1, lower)."""
    def shape(m: int) -> dict:
        return {"flags": ["-m", str(m), "-c", f"{m}.0"], "m": m, "gamma": Fraction(m),
                "b": 1.0, "c": float(m), "upper": False}

    return [
        _op("baseline.cond_m200", "cond", shape(200), []),
        _op("baseline.perturb_m50", "perturb", shape(50),
            ["-j", "1", "--trials", "1000", "--seed", "0"]),
        _op("baseline.gen_x_json_m600", "gen", shape(600),
            ["--what", "X", "--format", "json", "-o", "x600.json"], output="x600.json"),
    ]


def build_ops(workload: str, seed: int) -> list[Op]:
    """The workload's operations for this seed, in a fixed canonical order."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def pass_orders(ops: list[Op], seed: int):
    """Endless seeded sequence of per-pass operation orders."""
    rng = random.Random(f"order:{seed}")
    while True:
        order = list(ops)
        rng.shuffle(order)
        yield order
