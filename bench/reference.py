"""Reference values for the `deep` workload, and how each was established.

Each entry is (op name, scan, subject, max_len, reference value, how).
Subjects name a builtin triple (`xor2`, `mod3`) or a generated one
(`seed17` = generate_triple(spec_for_seed(17))), then the code or, for
relative scans, the whole triple.  Scans: `class_degree`,
`relative_class_degree`, `find_magic_block`, and
`periodic_point_relative_degree` over the periodic point in POINTS.

Two facts make most values exact rather than observed:
- depth is never below 1, so a scan that reports 1 and whose minimal
  block's certificate replays has found the class degree;
- seeds 17 and 29 are matched blowups: every Y symbol has 3 copies and
  every Y edge lifts to a bijection between copies, so phi is exactly
  3-to-1 at every coordinate.  Its degree, class degree and least
  preimage symbol count are all 3.
"""

POINTS = {"seed17": "(y0·y1·y2)", "seed29": "(y0·y2·y1)"}

DEEP = (
    ("cd-xor2-phi", "class_degree", "xor2.phi", 12, 2,
     "corpus.BUILTIN_EXPECTED; phi is finite-to-one and degree_finite_to_one gives 2"),
    ("cd-mod3-phi", "class_degree", "mod3.phi", 9, 3,
     "corpus.BUILTIN_EXPECTED; phi is finite-to-one and degree_finite_to_one gives 3"),
    ("cd-seed17-phi", "class_degree", "seed17.phi", 10, 3, "matched blowup, 3-to-1"),
    ("cd-seed29-phi", "class_degree", "seed29.phi", 10, 3, "matched blowup, 3-to-1"),
    ("cd-seed17-pi", "class_degree", "seed17.pi", 12, 1,
     "floor: a depth-1 block of length 9 whose certificate replays"),
    ("cd-seed29-pi", "class_degree", "seed29.pi", 12, 1,
     "floor: class_degree at max_len 13 finds the depth-1 block WITNESS_SEED29_PI"),
    ("rcd-seed17", "relative_class_degree", "seed17", 12, 1,
     "floor: a relative-depth-1 block of length 8 whose certificate replays"),
    ("rcd-seed29", "relative_class_degree", "seed29", 12, 1,
     "floor: a relative-depth-1 block of length 12 whose certificate replays"),
    ("magic-mod3-phi", "find_magic_block", "mod3.phi", 10, 3,
     "corpus.BUILTIN_EXPECTED; the magic-block count of a finite-to-one code is its degree"),
    ("magic-seed17-phi", "find_magic_block", "seed17.phi", 12, 3,
     "matched blowup: every coordinate of every fiber holds 3 symbols"),
    ("ppr-seed17", "periodic_point_relative_degree", "seed17", 12, 1,
     "floor: a relative-depth-1 block of length 12 of the point whose certificate replays"),
    ("ppr-seed29", "periodic_point_relative_degree", "seed29", 12, 1,
     "floor: a relative-depth-1 block of length 12 of the point whose certificate replays"),
)

# Defects of the program that the reference table exposes, with the value
# the program reports.  At max_len 12 class_degree stops on a plateau of 2
# and marks it stabilized, while the depth-1 block below has length 13.
KNOWN_DEFECTS = {"cd-seed29-pi": 2}

WITNESS_SEED29_PI = "z0·z1·z1·z0·z1·z1·z0·z1·z1·z0·z1·z1·z0"
