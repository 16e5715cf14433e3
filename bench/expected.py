"""
Expected outputs of the benchmark jobs, pinned as constants.

They were recorded from the command-line output at commit 3b357c5 and
agree with the closed forms and the acceptance table in
``tests/test_acceptance.py``.  The checks compare against these values
only; they never ask the code under test for an expected value.
Each table covers sizes up to the largest any workload size in
``workloads.SIZES`` may ask for, and a job checks the prefix it ran.
"""

# the smoothness pattern sets of invpat.mcgovern, as the CLI reads them
PI_SMOOTH = ("14325 21543 32154 154326 124356 351624 132546 426153 153624 "
             "351426 1243576 2135467 2137654 4321576 5276143 5472163 1657324 "
             "4651327 57681324 65872143 13247856 34125768 34127856 64827153 "
             "2143 1324")
PI_PRIME = ("351624 64827153 57681324 53281764 43218765 65872143 21654387 "
            "21563487 34127856 43217856 34128765 36154287 21754836 63287154 "
            "54821763 46513287 21768435")

# verify-mcgovern rows: part 1 n -> (total, classical, coarse, full);
# part 2 n -> (total, classical, coarse)
SWEEP = {
    1: {1: (1, 1, 1, 1), 2: (2, 2, 2, 2), 3: (4, 4, 4, 4), 4: (10, 8, 8, 8),
        5: (26, 18, 18, 18), 6: (76, 36, 36, 36), 7: (232, 82, 82, 82),
        8: (764, 164, 164, 164), 9: (2620, 372, 372, 372),
        10: (9496, 744, 744, 744), 11: (35696, 1678, 1678, 1678),
        12: (140152, 3356, 3356, 3356)},
    2: {2: (1, 1, 1), 4: (3, 3, 3), 6: (15, 14, 14), 8: (105, 68, 68),
        10: (945, 320, 320), 12: (10395, 1472, 1472)},
}

# basis of the classical avoiders of one pattern inside an order (the
# paper's table); unchanged for every bound from twice the pattern size up
BASIS = {
    ("123", "I"): "123 14523 34125 351624 456123",
    ("123", "F"): "214365 341265 215634 351624 456123",
    ("132", "I"): "132 35142 465132",
    ("132", "F"): "2143 465132",
    ("213", "I"): "213 42513 546213",
    ("213", "F"): "2143 546213",
    ("231", "I"): "3412 4231",
    ("231", "F"): "3412 632541",
    ("321", "I"): "321",
    ("321", "F"): "4321",
}

# count columns, keyed "<patterns>/<mode>"
COUNTS = {
    "321/I": {1: 1, 2: 2, 3: 3, 4: 6, 5: 10, 6: 20, 7: 35, 8: 70, 9: 126,
              10: 252, 11: 462, 12: 924},
    "132/I": {1: 1, 2: 2, 3: 3, 4: 6, 5: 11, 6: 24, 7: 51, 8: 122, 9: 291,
              10: 756, 11: 1979, 12: 5526},
    "213/I": {1: 1, 2: 2, 3: 3, 4: 6, 5: 11, 6: 24, 7: 51, 8: 122, 9: 291,
              10: 756, 11: 1979, 12: 5526},
    "123/I": {1: 1, 2: 2, 3: 3, 4: 6, 5: 12, 6: 26, 7: 62, 8: 148, 9: 396,
              10: 1044, 11: 3024, 12: 8784},
    "2143/I": {1: 1, 2: 2, 3: 4, 4: 9, 5: 21, 6: 52, 7: 134, 8: 361,
               9: 1009, 10: 2926, 11: 8768, 12: 27121},
    "PI_SMOOTH/Iprime": {1: 1, 2: 2, 3: 4, 4: 8, 5: 18, 6: 36, 7: 82,
                         8: 164, 9: 372, 10: 744, 11: 1678, 12: 3356},
    "PI_PRIME/F": {2: 1, 4: 3, 6: 14, 8: 68, 10: 320, 12: 1472, 14: 6682},
    "2143/F": {2: 1, 4: 2, 6: 6, 8: 24, 10: 120, 12: 720, 14: 5040},
    "empty/I": {1: 1, 2: 2, 3: 4, 4: 10, 5: 26, 6: 76, 7: 232, 8: 764,
                9: 2620, 10: 9496, 11: 35696, 12: 140152, 13: 568504},
}

# |S_n|, which is also the number of labeled Dyck paths of half-length n
FACTORIALS = {0: 1, 1: 1, 2: 2, 3: 6, 4: 24, 5: 120, 6: 720, 7: 5040,
              8: 40320, 9: 362880}

# even-level paths of length n, equinumerous with 132-avoiding involutions
ANDRE_PATHS = {0: 1, 1: 1, 2: 2, 3: 3, 4: 6, 5: 11, 6: 24, 7: 51, 8: 122,
               9: 291, 10: 756, 11: 1979, 12: 5526, 13: 15627}
