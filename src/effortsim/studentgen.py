"""Deterministic generator for the bundled student-performance stand-in.

The toolkit's reference pipeline targets the public student achievement
data (two Portuguese schools, final-grade regression, 649 students). That
file cannot be redistributed here, so the package ships a synthetic
replica produced by this script: same columns, same row count, group
shares and per-feature marginals modeled on the published statistics, and
an integer 0-20 grade triple driven by a latent-ability model. Anyone
holding the original ``student-por.csv`` can point the same schema file
at it instead.

Regenerate with ``python -m effortsim.studentgen [--out PATH]``; output is
byte-identical for a fixed seed.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from .dataset import write_table

SEED = 231007
N_FEMALE = 383
N_MALE = 266

COLUMNS = [
    "school", "sex", "age", "address", "traveltime", "studytime", "failures",
    "schoolsup", "famsup", "paid", "activities", "higher", "internet",
    "romantic", "famrel", "freetime", "goout", "Dalc", "Walc", "health",
    "absences", "G1", "G2", "G3",
]


def _choice(rng, values, probs, size):
    probs = np.asarray(probs, dtype=np.float64)
    return rng.choice(np.asarray(values), size=size, p=probs / probs.sum())


def _binary(rng, p_yes, size, yes="yes", no="no"):
    return np.where(rng.random(size) < p_yes, yes, no)


def _by_sex(rng, is_f, f_spec, m_spec, values):
    out = np.empty(is_f.size, dtype=object)
    out[is_f] = _choice(rng, values, f_spec, int(is_f.sum()))
    out[~is_f] = _choice(rng, values, m_spec, int((~is_f).sum()))
    return out


def generate_rows(seed: int = SEED) -> list[list[str]]:
    rng = np.random.default_rng(seed)
    n = N_FEMALE + N_MALE
    sex = np.array(["F"] * N_FEMALE + ["M"] * N_MALE, dtype=object)
    rng.shuffle(sex)
    is_f = sex == "F"

    school = np.where(rng.random(n) < 0.65, "GP", "MS")
    age = np.clip(np.round(rng.normal(16.7, 1.2, n)), 15, 22).astype(int)
    address = np.where(rng.random(n) < 0.70, "U", "R")
    traveltime = _choice(rng, [1, 2, 3, 4], [0.57, 0.29, 0.10, 0.04], n).astype(int)
    studytime = _by_sex(
        rng, is_f, [0.17, 0.44, 0.27, 0.12], [0.36, 0.44, 0.15, 0.05], [1, 2, 3, 4]
    ).astype(int)
    failures = _by_sex(
        rng, is_f, [0.88, 0.07, 0.03, 0.02], [0.80, 0.11, 0.06, 0.03], [0, 1, 2, 3]
    ).astype(int)
    schoolsup = _binary(rng, 0.10, n)
    famsup = _binary(rng, 0.61, n)
    paid = _binary(rng, 0.06, n)
    activities = np.where(rng.random(n) < np.where(is_f, 0.44, 0.55), "yes", "no")
    higher = np.where(rng.random(n) < np.where(is_f, 0.93, 0.85), "yes", "no")
    internet = _binary(rng, 0.77, n)
    romantic = np.where(rng.random(n) < np.where(is_f, 0.41, 0.32), "yes", "no")
    famrel = _choice(rng, [1, 2, 3, 4, 5], [0.02, 0.06, 0.17, 0.49, 0.26], n).astype(int)
    freetime = _choice(rng, [1, 2, 3, 4, 5], [0.07, 0.17, 0.38, 0.26, 0.12], n).astype(int)
    goout = _choice(rng, [1, 2, 3, 4, 5], [0.08, 0.22, 0.33, 0.24, 0.13], n).astype(int)
    dalc = _by_sex(
        rng, is_f, [0.80, 0.13, 0.04, 0.02, 0.01], [0.56, 0.24, 0.12, 0.05, 0.03], [1, 2, 3, 4, 5]
    ).astype(int)
    walc = _by_sex(
        rng, is_f, [0.48, 0.25, 0.15, 0.08, 0.04], [0.26, 0.22, 0.23, 0.17, 0.12], [1, 2, 3, 4, 5]
    ).astype(int)
    health = _choice(rng, [1, 2, 3, 4, 5], [0.10, 0.12, 0.20, 0.25, 0.33], n).astype(int)
    absences = np.minimum(np.floor(rng.exponential(3.6, n)), 32).astype(int)

    # Grade model: observed-feature signal plus a shared latent ability and
    # per-period noise. The sex term and the group-dependent ability scale
    # place the groups' grade distributions (and their upper tails) apart,
    # while the mutable features' group shifts roughly cancel in the signal.
    signal = (
        0.55 * is_f
        + 0.20 * (school == "GP")
        + 0.20 * (address == "U")
        - 0.12 * (traveltime - 1.6)
        + 0.45 * (studytime - 2.0)
        - 0.90 * np.minimum(failures, 2)
        - 0.40 * (schoolsup == "yes")
        + 0.10 * (famsup == "yes")
        + 0.05 * (paid == "yes")
        + 0.20 * (activities == "yes")
        + 0.90 * (higher == "yes")
        + 0.30 * (internet == "yes")
        - 0.20 * (romantic == "yes")
        + 0.15 * (famrel - 3.9)
        - 0.08 * (freetime - 3.2)
        - 0.22 * (goout - 3.1)
        - 0.18 * (dalc - 1.7)
        - 0.10 * (walc - 2.1)
        - 0.05 * (health - 3.6)
        - 0.04 * absences
    )
    ability = rng.normal(0.0, 1.0, n) * np.where(is_f, 1.55, 1.25)

    def grade(center_shift: float, scale_f: float, scale_m: float) -> np.ndarray:
        scale = np.where(is_f, scale_f, scale_m)
        raw = 10.55 + center_shift + signal + ability + rng.normal(0.0, 1.0, n) * scale
        return np.clip(np.round(raw), 0, 20).astype(int)

    g1 = grade(-0.4, 1.95, 1.70)
    g2 = grade(-0.2, 1.95, 1.70)
    g3 = grade(0.0, 1.95, 2.35)

    cols = [
        school, sex, age, address, traveltime, studytime, failures, schoolsup,
        famsup, paid, activities, higher, internet, romantic, famrel, freetime,
        goout, dalc, walc, health, absences, g1, g2, g3,
    ]
    return [[str(col[i]) for col in cols] for i in range(n)]


def write_csv(path: str | Path, seed: int = SEED) -> None:
    write_table(path, COLUMNS, generate_rows(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(Path(__file__).parent / "data" / "student_por_synthetic.csv"),
        help="output CSV path",
    )
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)
    write_csv(args.out, args.seed)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
