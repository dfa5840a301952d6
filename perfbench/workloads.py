"""What each workload runs.  Shared by the driver, the child and the self-test."""

# every (p, h) verify.run_all() builds a field for
ACCEPTANCE_FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                     (3, 2), (3, 3), (3, 4), (5, 2)]

# the four checks of 2.5 s or more; the sub-second ones stay inside run_s
HEAVY_CHECKS = ("automorphism_groups", "isomorphism_classes",
                "unique_fixed_point", "oracle_suites")

# (family, p, h); every ambient order p^(4h) is above 2^20.  The seed picks
# the admissible b of the I and II items; their N (ref/count_large.json)
# does not depend on b.
COUNT_ITEMS = [
    ("hermitian", 2, 7),
    ("center", 2, 7),
    ("I", 2, 7),
    ("I", 3, 4),
    ("I", 5, 3),
    ("II", 7, 2),
    ("II", 11, 2),
    ("hermitian", 7, 2),
]

# README quick-start commands, each run as its own `python -m hermquot`
# process.  `verify --all` is the acceptance workload; `aut --family II
# --p 3 --h 2` is 17 s of the family_II_group(3, 2) build that acceptance
# already times cold.
CLI_COMMANDS = [
    ["field", "--p", "2", "--h", "3"],
    ["construct", "--family", "I", "--p", "2", "--h", "3"],
    ["count", "--family", "I", "--p", "2", "--h", "3"],
    ["genus", "--family", "II", "--p", "5", "--h", "2"],
    ["semigroup", "--family", "II", "--p", "3", "--h", "2"],
    ["semigroup", "--gens", "3,4,10"],
    ["aut", "--family", "hermitian", "--p", "2", "--h", "2", "--subgroups"],
    ["iso", "--family", "I", "--p", "2", "--h", "4", "--inventory"],
    ["iso", "--family", "I", "--p", "2", "--h", "3", "--b", "1186",
     "--bbar", "2434", "--oracle", "1"],
    ["verify-lemma-a", "--p", "3"],
    ["verify-lemma-b", "--p", "2", "--h", "3"],
]

# fields the CLI commands above build (genus and semigroup build none)
CLI_FIELDS = [(2, 2), (2, 3), (2, 4), (3, 1)]


def count_fields():
    return sorted({(p, h) for _, p, h in COUNT_ITEMS})


def cli_key(argv) -> str:
    return " ".join(argv)


FIELDS = {
    "acceptance": ACCEPTANCE_FIELDS,
    "count_large": count_fields(),
    "cli_cold": CLI_FIELDS,
}
