"""Workload table and input generators for the ultrafit benchmark.

Each workload is one CLI command run on one generated CSV.  The seed is a
benchmark argument; the program only ever sees the CSV.  The reference
datasets (DIABETES, MICE, PENDIGITS) are not in the repository, so the
generators reproduce their shapes.
"""

from dataclasses import dataclass, replace

import numpy as np


def blobs(shape: np.random.Generator, rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Ten-blob Gaussian mixture, the generator of acceptance criterion 6.

    The blob centers come from the workload's fixed `shape` stream and only
    the samples from the seed, so every seed draws from one mixture and the
    work per op varies little between seeds.
    """
    centers = shape.random((10, d)) * 6.0
    labels = rng.integers(0, 10, n)
    return centers[labels] + rng.standard_normal((n, d)) * 0.35


def uniform_with_duplicates(shape: np.random.Generator, rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Uniform rows in the unit cube with about n/150 rows copied over others,
    so the CLI's dedupe has work to do."""
    x = rng.random((n, d))
    k = max(1, n // 150)
    x[rng.choice(n, k, replace=False)] = x[rng.choice(n, k, replace=False)]
    return x


GENERATORS = {"blobs": blobs, "uniform_with_duplicates": uniform_with_duplicates}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str
    n: int
    d: int
    argv: tuple[str, ...]
    salt: int  # fixes the mixture and separates the sample streams of workloads
    smoke_n: int  # size used by the self-tests

    def points(self, seed: int) -> np.ndarray:
        shape = np.random.default_rng(self.salt)
        return GENERATORS[self.generator](shape, np.random.default_rng([self.salt, seed]), self.n, self.d)

    def smoke(self) -> "Workload":
        return replace(self, n=self.smoke_n)

    @property
    def algorithms(self) -> list[str]:
        return self.argv[self.argv.index("--algo") + 1].split(",")


# The "why" strings are copied into BENCHMARK.json; a self-test keeps them equal.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="approx-blobs-11k",
            why="fit approx on 10992x16 ten-blob mix (PENDIGITS shape): spanner+Kruskal ~75% of "
            "fit_s; exact_mst and linkage never run; low-d, large-n side of the evaluator",
            generator="blobs",
            n=10_992,
            d=16,
            argv=("fit", "--algo", "approx", "--gamma", "2.5", "--normalize"),
            salt=1,
            smoke_n=1_500,
        ),
        Workload(
            name="compare-highd-1800",
            why="compare 6 algorithms on 1800x77 uniform rows with duplicates (MICE width): "
            "evaluation dominates; NN-chain linkage and dense exact_mst run; high-d evaluator side",
            generator="uniform_with_duplicates",
            n=1_800,
            d=77,
            argv=("compare", "--algo", "approx,acc,exact,single,average,ward"),
            salt=3,
            smoke_n=300,
        ),
    )
}


def write_csv(path, x: np.ndarray) -> None:
    """One row per point; repr() round-trips every float64 exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(",".join(map(repr, row)) for row in x.tolist()))
        fh.write("\n")
